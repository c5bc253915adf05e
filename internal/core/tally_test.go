package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// distinct fills every field of the struct v points to with a different
// non-zero value (true for bools), so a conversion that drops or swaps a
// field cannot produce an equal struct.
func distinct(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + 7*i))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("%s.%s has kind %s: teach this guard (and addScaled) about it",
				rv.Type().Name(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestCountersEveryFieldTravels is the guard that makes "add a counter =
// add a field" safe: every Counters field must survive each conversion a
// count goes through on its way to a result — Add, Sub, the checkpoint
// envelope, a unit report on the wire, and the Stats fill. A field added
// to the struct and forgotten in one of them fails here instead of
// under-reporting after a resume or a distributed run.
func TestCountersEveryFieldTravels(t *testing.T) {
	var c Counters
	distinct(t, &c)
	var r Resilience
	distinct(t, &r)

	var sum Counters
	sum.Add(c)
	sum.Add(c)
	if got := sum.Sub(c); got != c {
		t.Errorf("c+c-c = %+v, want %+v", got, c)
	}
	if got := sum.Sub(c).Sub(c); got != (Counters{}) {
		t.Errorf("c+c-c-c = %+v, want zero", got)
	}
	rs, rc := reflect.ValueOf(sum), reflect.ValueOf(c)
	for i := 0; i < rs.NumField(); i++ {
		if rs.Field(i).Int() != 2*rc.Field(i).Int() {
			t.Errorf("Add dropped %s: c+c has %d, c has %d", rs.Type().Field(i).Name, rs.Field(i).Int(), rc.Field(i).Int())
		}
	}

	bugs := []Bug{{Kind: BugSegfault, Message: "m", Execution: 3, ReproToken: "tok"}}
	cp := NewCheckpoint(1, "cfg", "prog", nil, Tally{Counters: c, Bugs: bugs}, r, 0, false, false)
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	gotT, gotR := back.Totals()
	if gotT.Counters != c || gotR != r || !reflect.DeepEqual(gotT.Bugs, bugs) {
		t.Errorf("checkpoint round trip:\n got %+v %+v %v\nwant %+v %+v %v", gotT.Counters, gotR, gotT.Bugs, c, r, bugs)
	}

	raw, err = json.Marshal(UnitReport{Tally: Tally{Counters: c, Bugs: bugs}, RPCRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	var rep UnitReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counters != c || !reflect.DeepEqual(rep.Bugs, bugs) || rep.RPCRetries != 2 {
		t.Errorf("unit report round trip: got %+v, want counters %+v", rep, c)
	}

	cfg := Config{Workers: 1}
	cfg.fillDefaults()
	e := newEngine(cfg, resilientClean, "prog")
	e.total.Counters, e.res = c, r
	if st := e.result(true).Stats; st.Counters != c || st.Resilience != r {
		t.Errorf("Stats fill: got %+v, want %+v %+v", st, c, r)
	}
}

// TestTallyDedupSurvivesCopies: a Tally rebuilt from its exported fields —
// what a checkpoint decode or a frontier's Progress hands out — still
// refuses the bugs it already holds.
func TestTallyDedupSurvivesCopies(t *testing.T) {
	a := Bug{Kind: BugAssertion, Message: "a"}
	b := Bug{Kind: BugSegfault, Message: "a"} // same text, other kind: distinct
	var orig Tally
	if n := orig.Merge([]Bug{a, a, b}); n != 2 {
		t.Fatalf("Merge added %d, want 2", n)
	}
	cp := Tally{Counters: orig.Counters, Bugs: append([]Bug(nil), orig.Bugs...)}
	if n := cp.Merge([]Bug{b, a}); n != 0 {
		t.Fatalf("copy re-admitted %d bugs it already held", n)
	}
	var m mark
	if _, fresh := orig.since(&m); len(fresh) != 2 {
		t.Fatalf("since(zero mark) = %d bugs, want 2", len(fresh))
	}
	orig.Merge([]Bug{{Kind: BugPanic, Message: "late"}})
	orig.Steps += 5
	d, fresh := orig.since(&m)
	if len(fresh) != 1 || fresh[0].Kind != BugPanic || d != (Counters{Steps: 5}) {
		t.Fatalf("since(mark) = %+v %v, want the one late bug and 5 steps", d, fresh)
	}
}

// TestConfigDigestPinned pins configDigest to the values it had before the
// digest-relevant field names moved into digestFields: every checkpoint and
// repro token in the wild carries one of these strings.
func TestConfigDigestPinned(t *testing.T) {
	var defaults Config
	defaults.fillDefaults()
	nondefault := Config{GPF: true, Poison: true, MaxStepsPerExec: 1234, MemSize: 1 << 20, CommitChance: 40,
		EagerReadSet: true, MaxEventsPerExec: 99, Reduction: SwitchOff, RaceDetect: SwitchOn,
		UnflushedLines: []uint64{9, 3, 3}}
	nondefault.fillDefaults()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero", Config{}, "5cd1cd043fba18ac"},
		{"defaults", defaults, "cf3d4bbf5a818c46"},
		{"nondefault", nondefault, "285806deaa2316ca"},
	} {
		if got := configDigest(tc.cfg); got != tc.want {
			t.Errorf("configDigest(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestDigestMismatchMessagesNameEveryField: both "must match" errors are
// built from digestFields, and digestFields covers what configDigest
// hashes — flipping any one named field changes the digest.
func TestDigestMismatchMessagesNameEveryField(t *testing.T) {
	cfg := Config{ContinueAfterBug: true, CheckpointPath: cpPath(t), MaxExecutions: 2, Workers: 1}
	res, err := Run(cfg, resilientBuggy)
	if err != nil || len(res.Bugs) == 0 {
		t.Fatalf("seeding run: %v, %d bugs", err, len(res.Bugs))
	}
	other := cfg
	other.CommitChance = 60
	_, cpErr := Run(other, resilientBuggy)
	_, tokErr := Replay(res.Bugs[0].ReproToken, Config{CommitChance: 60}, resilientBuggy)
	for what, err := range map[string]error{"checkpoint": cpErr, "token": tokErr} {
		if err == nil {
			t.Fatalf("%s accepted under a different CommitChance", what)
		}
		for _, f := range digestFields {
			if !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s mismatch error does not name %s: %v", what, f.name, err)
			}
		}
	}

	base := Config{RaceDetect: SwitchOn}
	base.fillDefaults()
	for _, f := range digestFields {
		c := base
		fv := reflect.ValueOf(&c).Elem().FieldByName(f.name)
		if !fv.IsValid() {
			t.Fatalf("digestFields names %s, which is not a Config field", f.name)
		}
		switch v := fv.Addr().Interface().(type) {
		case *bool:
			*v = !*v
		case *int:
			*v++
		case *uint64:
			*v++
		case *Switch:
			*v = SwitchOff
		case *[]uint64:
			*v = []uint64{1}
		default:
			t.Fatalf("digestFields names %s, whose type %s this test does not know how to flip", f.name, fv.Type())
		}
		if configDigest(c) == configDigest(base) {
			t.Errorf("digestFields names %s but configDigest ignores it", f.name)
		}
	}
}
