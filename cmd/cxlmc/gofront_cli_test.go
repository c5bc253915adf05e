package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// runCLI2 is runCLI with stderr captured too, for the diagnostic
// goldens.
func runCLI2(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CXLMC_TEST_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestCheckSourceFindsSeededBug is the CLI half of the tentpole
// acceptance: `cxlmc -check examples/src/cceh.go` finds the seeded
// constructor bug (exit 1), prints a -check-flavored repro line, and
// the printed token replays through -check with exit 0.
func TestCheckSourceFindsSeededBug(t *testing.T) {
	src := "../../examples/src/cceh.go"
	out, code := runCLI(t, "-check", src)
	if code != 1 {
		t.Fatalf("-check %s exited %d, want 1 (bugs found); output:\n%s", src, code, out)
	}
	if !strings.Contains(out, "BUGS FOUND") || !strings.Contains(out, "unflushed-publish") {
		t.Fatalf("-check output missing the seeded unflushed-publish bug:\n%s", out)
	}
	m := regexp.MustCompile(`repro: -check \S+ -entry Program -replay (\S+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("-check output has no -check-flavored repro line:\n%s", out)
	}
	rout, rcode := runCLI(t, "-check", src, "-replay", m[1])
	if rcode != 0 {
		t.Fatalf("-check -replay exited %d, want 0; output:\n%s", rcode, rout)
	}
	if !strings.Contains(rout, "replayed") || !strings.Contains(rout, "unflushed-publish") {
		t.Fatalf("-check -replay did not reproduce the bug:\n%s", rout)
	}
}

// TestCheckVetSourceGolden pins `cxlmc -vet -check` on the source twin
// of vet-demo: same findings and format as the hand-ported path, plus
// file:line annotations from the front-end's site map, exit 1.
func TestCheckVetSourceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/vet_src.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, code := runCLI(t, "-vet", "-check", "testdata/vet_src.go")
	if got != string(want) {
		t.Errorf("-vet -check output differs from testdata/vet_src.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if code != 1 {
		t.Errorf("-vet -check with findings exited %d, want 1", code)
	}
}

// TestCheckUnsupportedGolden pins the unsupported-construct contract:
// what the subset check rejects (a go statement) and what the compiler
// cannot lower (a method value, a struct by value, ...) are positioned
// diagnostics on stderr and exit code 2, never a panic and never a bug
// found mid-exploration.
func TestCheckUnsupportedGolden(t *testing.T) {
	for _, name := range []string{"unsupported", "unsupported_lowering"} {
		want, err := os.ReadFile("testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		_, stderr, code := runCLI2(t, "-check", "testdata/"+name+".go")
		if stderr != string(want) {
			t.Errorf("-check diagnostic differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", name, stderr, want)
		}
		if code != 2 {
			t.Errorf("-check testdata/%s.go exited %d, want 2", name, code)
		}
	}
}

// TestCheckFlagValidation covers the -check flag contract: mutual
// exclusion with -bench, -entry requiring -check, and a readable error
// for a missing file. The retired distributed flags are usage errors too:
// one process explores. So is -chaos outside -stress.
func TestCheckFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-check", "testdata/vet_src.go", "-bench", "CCEH"},
		{"-entry", "Program", "-bench", "CCEH"},
		{"-check", "testdata/does_not_exist.go"},
		{"-bench", "CCEH", "-serve", ":0"},
		{"-bench", "CCEH", "-join", "127.0.0.1:1"},
		// The workload bounds a submitted spec is held to (a 400 there).
		{"-bench", "P-ART", "-stride", "4611686018427387904"},
		{"-bench", "CCEH", "-keys", "70000"},
		{"-bench", "CCEH", "-insert-workers", "99"},
		// -chaos is the swarm's resume-under-chaos leg; a checked run has
		// no fault injector of its own.
		{"-bench", "CCEH", "-chaos"},
		{"-bench", "CCEH", "-chaos-seed", "7"},
	}
	for _, args := range cases {
		if _, _, code := runCLI2(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
	// A wrong -entry is a positioned load-time error, not a panic.
	_, stderr, code := runCLI2(t, "-check", "testdata/vet_src.go", "-entry", "Nope")
	if code != 2 || !strings.Contains(stderr, `no function "Nope"`) {
		t.Errorf("-entry Nope: exit %d, stderr %q; want 2 with a no-function diagnostic", code, stderr)
	}
}
