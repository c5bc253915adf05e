package core

// WithEagerReadSet returns cfg with the pre-§4.5 read path on: a load
// materializes Algorithm 3's whole read-from set and branches n-ary over it
// instead of searching lazily. It is how package core_test holds the lazy
// search to its reference; no program outside the tests can set it.
func WithEagerReadSet(cfg Config) Config {
	cfg.eagerReadSet = true
	return cfg
}
