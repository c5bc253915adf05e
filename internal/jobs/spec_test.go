package jobs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	cxlmc "repro"
	"repro/internal/core"
)

// twoEntries is a source program with two entry functions that build
// different programs, so -entry can be seen to travel.
const twoEntries = `package main

import "cxl"

func Program(r *cxl.Region) {
	a := r.Alloc(8)
	r.NewMachine("A").Spawn("w", func() { cxl.Store64(a, 1) })
}

func Other(r *cxl.Region) {
	a := r.Alloc(8)
	m := r.NewMachine("A")
	m.Spawn("w", func() { cxl.Store64(a, 1) })
	m.Spawn("v", func() { cxl.Store64(a, 2) })
}
`

// bindTo binds sp's flags to a fresh flag set.
func bindTo(sp *Spec) *flag.FlagSet {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sp.BindFlags(fs)
	return fs
}

// flip sets the named flag of fs to a value its type accepts and that is
// not what a zero spec holds.
func flip(t *testing.T, fs *flag.FlagSet, name string) {
	t.Helper()
	candidates := []string{"3", "3s", "true", "off"}
	switch name {
	case "bench": // must still name a program
		candidates = []string{"P-CLHT"}
	case "entry":
		candidates = []string{"Other"}
	}
	for _, v := range candidates {
		if fs.Set(name, v) == nil {
			return
		}
	}
	t.Fatalf("flag -%s accepts none of %v; teach this test a value for it", name, candidates)
}

// fingerprint is what a spec's program is, as far as a run can tell: its
// setup digest and the counters of a short serial exploration (workload
// shape and seeded bugs change what threads do, not what setup allocates).
func fingerprint(t *testing.T, sp Spec) string {
	t.Helper()
	prog, err := sp.Program()
	if err != nil {
		t.Fatalf("Program() of %+v: %v", sp, err)
	}
	cfg := cxlmc.Config{Workers: 1, MaxExecutions: 20, ContinueAfterBug: true}
	_, digest, err := core.ExplorationDigests(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cxlmc.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(digest, res.Counters)
}

// TestSpecEveryKnobTravels is the guard of DESIGN.md's "How a knob
// travels", in the mould of core's TestCountersEveryFieldTravels: every
// field of Spec has one JSON key, and every field a command line can set
// has exactly one flag from BindFlags, whose flipping reaches the run —
// through Program() or through Config(base). A field added without its
// flag, or a flag whose field Config forgets, fails here by name.
func TestSpecEveryKnobTravels(t *testing.T) {
	// What the verbs fill in themselves: the tenant, a generated program
	// (submit's -gen/-gen-seed) and the bytes and name of the source file
	// (-check / -source read it).
	verbOwned := map[string]bool{"Tenant": true, "Gen": true, "Source": true, "SourceName": true}

	var zero Spec
	flagOf := map[string]string{}
	bindTo(&zero).VisitAll(func(f *flag.Flag) {
		var sp Spec
		flip(t, bindTo(&sp), f.Name)
		var changed []string
		for i := 0; i < reflect.TypeOf(sp).NumField(); i++ {
			if !reflect.DeepEqual(reflect.ValueOf(sp).Field(i).Interface(), reflect.ValueOf(zero).Field(i).Interface()) {
				changed = append(changed, reflect.TypeOf(sp).Field(i).Name)
			}
		}
		if len(changed) != 1 {
			t.Errorf("flag -%s sets fields %v, want exactly one", f.Name, changed)
			return
		}
		if other, dup := flagOf[changed[0]]; dup {
			t.Errorf("Spec.%s has two flags, -%s and -%s", changed[0], other, f.Name)
		}
		flagOf[changed[0]] = f.Name
	})

	jsonKeys := map[string]string{}
	for i := 0; i < reflect.TypeOf(zero).NumField(); i++ {
		field := reflect.TypeOf(zero).Field(i)
		key, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Errorf("Spec.%s has no JSON key: it would not reach the server or the journal", field.Name)
		} else if other, dup := jsonKeys[key]; dup {
			t.Errorf("Spec.%s and Spec.%s share the JSON key %q", other, field.Name, key)
		}
		jsonKeys[key] = field.Name
		if verbOwned[field.Name] {
			continue
		}
		name, ok := flagOf[field.Name]
		if !ok {
			t.Errorf("Spec.%s has no flag: add its line to BindFlags", field.Name)
			continue
		}

		base := Spec{Bench: "CCEH"}
		if field.Name == "Entry" {
			base = Spec{Source: twoEntries, SourceName: "two.go", Entry: "Program"}
		}
		flipped := base
		flip(t, bindTo(&flipped), name)
		if reflect.DeepEqual(base.Config(cxlmc.Config{}), flipped.Config(cxlmc.Config{})) &&
			fingerprint(t, base) == fingerprint(t, flipped) {
			t.Errorf("Spec.%s (-%s) reaches neither Program() nor Config(base)", field.Name, name)
		}
		raw, err := json.Marshal(flipped)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, flipped) {
			t.Errorf("Spec.%s does not survive the journal's JSON: %s -> %+v (%v)", field.Name, raw, back, err)
		}
	}
}

// TestListTenantFilterIsLiteral: the tenant filter is outside input on its
// way into a URL. A name with query metacharacters must be matched as
// typed — here it names nobody — not parsed as "tenant a, and x=1".
func TestListTenantFilterIsLiteral(t *testing.T) {
	s := testServer(t, Config{})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 30*time.Second)
	if _, err := c.Submit(ctx, fastSpec("a")); err != nil {
		t.Fatal(err)
	}
	for tenant, want := range map[string]int{"": 1, "a": 1, "a&x=1": 0, "a b": 0, "a#": 0, "b": 0} {
		list, err := c.List(ctx, tenant)
		if err != nil {
			t.Errorf("List(%q): %v", tenant, err)
		} else if len(list) != want {
			t.Errorf("List(%q) returned %d job(s), want %d", tenant, len(list), want)
		}
	}
}

// TestFailedVetPrePassFailsJob: a race-detecting job whose cxlvet dry run
// errors must fail, permanently and saying so — as `cxlmc -check` exits 1
// on the same program — and never run unarmed, under a config digest the
// CLI would not stamp for the same spec.
func TestFailedVetPrePassFailsJob(t *testing.T) {
	s := testServer(t, Config{})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 30*time.Second)
	st, err := c.Submit(ctx, Spec{
		// Passes the front-end at submit time; setup divides by zero.
		Source:     "package main\n\nimport \"cxl\"\n\nfunc Program(r *cxl.Region) {\n\tvar z uint64\n\t_ = 1 / z\n}\n",
		RaceDetect: cxlmc.SwitchOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || fin.Retries != 0 || !strings.Contains(fin.Error, "vet pre-pass") {
		t.Fatalf("state %s after %d retries, error %q; want failed at once by the vet pre-pass", fin.State, fin.Retries, fin.Error)
	}
}
