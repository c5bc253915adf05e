package core

// WithEagerReadSet returns cfg with the pre-§4.5 read path on: a load
// materializes Algorithm 3's whole read-from set and branches n-ary over it
// instead of searching lazily. It is how package core_test holds the lazy
// search to its reference; no program outside the tests can set it.
func WithEagerReadSet(cfg Config) Config {
	cfg.eagerReadSet = true
	return cfg
}

// WithCommitChance returns cfg with the store-buffer drain bias set to
// chance percent (0 means the default of 25, and more than 99 means 99).
// Like the eager read path it is in the configuration digest, and no
// program outside the tests can set it.
func WithCommitChance(cfg Config, chance int) Config {
	cfg.commitChance = chance
	return cfg
}

// WithMemSize returns cfg with a simulated CXL region of size bytes (0
// means the default of 16 MiB). It is in the configuration digest, and no
// program outside the tests can set it.
func WithMemSize(cfg Config, size uint64) Config {
	cfg.memSize = size
	return cfg
}

// AuditedSteps returns how many scheduler steps this test binary has
// audited the books at (books_test.go).
func AuditedSteps() int64 { return auditedSteps.Load() }

// ResumeCheckpoint is the checkpoint reader every Ledger resumes through,
// for FuzzLoadCheckpoint to hold to its contract.
var ResumeCheckpoint = resumeCheckpoint

// ColdCheckers runs f with every checker new, as in a process that never
// ran one, and none kept for later: the fresh state TestWarmRunsAreIsolated
// holds warm runs to. Nothing else may run beside f.
func ColdCheckers(f func()) {
	coldCheckers = true
	defer func() { coldCheckers = false }()
	f()
}
