package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"sort"
	"syscall"
	"time"

	"os"
	"os/exec"
	"path/filepath"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/recipe"
	"strings"
	"testing"

	cxlmc "repro"
)

// TestMain lets a test re-exec this binary as the real cxlmc command:
// with CXLMC_TEST_MAIN=1 the process runs main's body (flag parsing and
// all) instead of the test suite, so the golden test exercises the
// actual CLI surface including the exit-code contract.
func TestMain(m *testing.M) {
	if os.Getenv("CXLMC_TEST_MAIN") == "1" {
		os.Exit(dispatch())
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as cxlmc with args, returning stdout
// and the exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CXLMC_TEST_MAIN=1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), code
}

// TestVetGolden pins `cxlmc -vet -bench vet-demo` to its golden output:
// the findings are ordered deterministically (by kind, then message),
// the format is the stable machine-readable one Report.WriteText
// defines, and findings mean exit code 1.
func TestVetGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/vet_demo.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, code := runCLI(t, "-vet", "-bench", "vet-demo")
	if got != string(want) {
		t.Errorf("-vet output differs from testdata/vet_demo.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if code != 1 {
		t.Errorf("-vet with findings exited %d, want 1", code)
	}
}

// TestVetCleanExitsZero: a clean program produces the zero-findings
// summary line and exit code 0 (checked in-process via the same helper
// main dispatches to).
func TestVetCleanExitsZero(t *testing.T) {
	clean := func(p *cxlmc.Program) {
		data := p.AllocAligned(8, 64)
		m0 := p.NewMachine("writer")
		m0.Thread("w0", func(th *cxlmc.Thread) {
			th.Store64(data, 1)
			th.CLFlush(data)
			th.SFence()
		})
		m1 := p.NewMachine("reader")
		m1.Thread("r0", func(th *cxlmc.Thread) {
			th.Load64(data)
		})
	}
	var out strings.Builder
	code := runVet(cxlmc.Config{}, clean, nil, &out, os.Stderr)
	if code != 0 {
		t.Errorf("runVet on a clean program = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "cxlvet: 0 finding(s)\n") {
		t.Errorf("clean output missing the zero-findings summary:\n%s", out.String())
	}
}

// TestVetRejectsDistModes: -vet is local and static; combining it with
// the dist or replay modes is a usage error (exit 2).
func TestVetRejectsDistModes(t *testing.T) {
	_, code := runCLI(t, "-vet", "-bench", "vet-demo", "-serve", ":0")
	if code != 2 {
		t.Errorf("-vet -serve exited %d, want 2", code)
	}
}

// TestProgressRejectedOnCoordinator: a coordinator explores nothing itself
// and hands no progress snapshot to print, and a job server prints none (each
// job's is in its status), so -progress with -serve or -jobserver is a usage
// error (exit 2), as -metrics-addr is.
func TestProgressRejectedOnCoordinator(t *testing.T) {
	_, code := runCLI(t, "-bench", "CCEH", "-serve", "127.0.0.1:0", "-progress", "1s")
	if code != 2 {
		t.Errorf("-serve -progress exited %d, want 2", code)
	}
	_, code = runCLI(t, "-jobserver", "127.0.0.1:0", "-jobs-dir", t.TempDir(), "-progress", "1s")
	if code != 2 {
		t.Errorf("-jobserver -progress exited %d, want 2", code)
	}
}

// startCLI re-execs the test binary as cxlmc with args, returning the
// running command and a line-buffered channel of its stderr — for tests
// that interact with a live process (signals, servers).
func startCLI(t *testing.T, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CXLMC_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return cmd, lines
}

// waitLine reads stderr lines until one contains substr, failing after
// the timeout. Non-matching lines are discarded.
func waitLine(t *testing.T, lines <-chan string, substr string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stderr closed before %q appeared", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("no %q on stderr within %v", substr, timeout)
		}
	}
}

// exitCode waits for the process and returns its exit code.
func exitCode(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	err := cmd.Wait()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("wait: %v", err)
	}
	return ee.ExitCode()
}

// TestSecondSignalForceExit pins the signal contract: the first SIGTERM
// asks for a graceful stop at the next execution boundary; a second one
// force-exits immediately with the distinct exit code 3, so supervisors
// can tell an abandoned drain from a failed run.
func TestSecondSignalForceExit(t *testing.T) {
	// A long exploration (reduction off blows P-BwTree up to ~13.5k
	// executions, two seconds and more) so both signals land mid-run; the
	// ~2.7k of 8 keys were over in about 100 ms on a fast host, before the
	// signals. The forced exit ends it at once either way.
	cmd, lines := startCLI(t,
		"-bench", "P-BwTree", "-keys", "16", "-insert-workers", "2",
		"-bugs", "1", "-continue", "-reduction", "off")
	time.Sleep(100 * time.Millisecond) // let the exploration start
	// Both signals go out at once, and as two different signals (pending
	// instances of one coalesce): a graceful stop takes a millisecond or
	// two, and a second signal sent only after reading the first one's
	// message lost that race on a loaded host about once in twenty runs.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitLine(t, lines, "stopping at the next execution boundary", 10*time.Second)
	waitLine(t, lines, "forced exit", 10*time.Second)
	if code := exitCode(t, cmd); code != 3 {
		t.Fatalf("second signal exited %d, want 3", code)
	}
}

// TestJobServerEndToEnd drives the checking-as-a-service mode through
// the real binary: start a server, submit a job with the submit verb and
// wait for it, poll it with status, list it with jobs, then SIGTERM the
// server and require a clean drain (exit 0).
func TestJobServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, lines := startCLI(t, "-jobserver", "127.0.0.1:0", "-jobs-dir", dir)
	banner := waitLine(t, lines, "job server on ", 10*time.Second)
	addr := strings.Fields(strings.SplitN(banner, "job server on ", 2)[1])[0]

	out, code := runCLI(t, "submit", "-addr", addr,
		"-bench", "CCEH", "-keys", "4", "-insert-workers", "1",
		"-bugs", "1", "-continue", "-wait")
	if code != 0 {
		t.Fatalf("submit -wait exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, `"state": "done"`) || !strings.Contains(out, `"Bugs"`) {
		t.Fatalf("submit -wait output missing done state or bugs:\n%s", out)
	}
	var fin struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &fin); err != nil || fin.ID == "" {
		t.Fatalf("submit -wait output is not a status JSON (%v):\n%s", err, out)
	}

	out, code = runCLI(t, "status", "-addr", addr, fin.ID)
	if code != 0 || !strings.Contains(out, `"state": "done"`) {
		t.Fatalf("status exited %d:\n%s", code, out)
	}
	out, code = runCLI(t, "jobs", "-addr", addr)
	if code != 0 || !strings.Contains(out, fin.ID) {
		t.Fatalf("jobs exited %d:\n%s", code, out)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine(t, lines, "drained clean", 30*time.Second)
	if code := exitCode(t, srv); code != 0 {
		t.Fatalf("drained server exited %d, want 0", code)
	}
}

// TestJobServerKill9Restart is the real-process restart guarantee: kill
// the server with SIGKILL mid-run — no drain, no final journal write —
// restart it on the same directory, and the job must still complete with
// the bug set an uninterrupted run finds.
func TestJobServerKill9Restart(t *testing.T) {
	dir := t.TempDir()
	srv, lines := startCLI(t, "-jobserver", "127.0.0.1:0", "-jobs-dir", dir,
		"-checkpoint-every", "25", "-checkpoint-interval", "50ms")
	banner := waitLine(t, lines, "job server on ", 10*time.Second)
	addr := strings.Fields(strings.SplitN(banner, "job server on ", 2)[1])[0]

	out, code := runCLI(t, "submit", "-addr", addr,
		"-bench", "P-BwTree", "-keys", "8", "-insert-workers", "2",
		"-bugs", "1", "-continue", "-reduction", "off")
	if code != 0 {
		t.Fatalf("submit exited %d:\n%s", code, out)
	}
	id := strings.TrimSpace(out)

	// Wait until the job has a checkpoint on disk (its cadence is 25
	// executions) while it still runs, then SIGKILL. The file is the proof
	// of progress: the run is over before the engine's first 250 ms
	// progress snapshot on a fast host.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never wrote a checkpoint")
		}
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		out, _ := runCLI(t, "status", "-addr", addr, id)
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(out), &st); err == nil && st.State == "running" {
			break
		}
		if st.State == "done" || st.State == "failed" {
			t.Fatalf("job finished before the kill: %s", out)
		}
	}
	if err := srv.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	srv.Wait()

	// The uninterrupted control, straight through the engine, under the
	// configuration the submitted flags mean (race detection on, armed).
	prog := recipe.Program(mustBench(t, "P-BwTree"), recipe.Config{Keys: 8, Workers: 2, Bugs: 1})
	ccfg, err := cxlmc.Arm(cxlmc.Config{
		Workers: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff, RaceDetect: cxlmc.SwitchOn,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	control, err := cxlmc.Run(ccfg, prog)
	if err != nil {
		t.Fatal(err)
	}

	srv2, lines2 := startCLI(t, "-jobserver", "127.0.0.1:0", "-jobs-dir", dir,
		"-checkpoint-every", "25", "-checkpoint-interval", "50ms")
	banner2 := waitLine(t, lines2, "job server on ", 10*time.Second)
	addr2 := strings.Fields(strings.SplitN(banner2, "job server on ", 2)[1])[0]

	out, code = runCLI(t, "wait", "-addr", addr2, id)
	if code != 0 {
		t.Fatalf("wait after kill -9 exited %d:\n%s", code, out)
	}
	var fin struct {
		State  string `json:"state"`
		Result *struct {
			Executions int `json:"Executions"`
			Bugs       []struct {
				Kind    int
				Message string
			}
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &fin); err != nil {
		t.Fatalf("wait output: %v\n%s", err, out)
	}
	if fin.State != "done" || fin.Result == nil {
		t.Fatalf("job after kill -9 restart: %s", out)
	}
	if fin.Result.Executions != control.Executions {
		t.Errorf("executions %d after kill -9 restart, control %d", fin.Result.Executions, control.Executions)
	}
	if len(fin.Result.Bugs) != len(control.Bugs) {
		t.Errorf("bug count %d after kill -9 restart, control %d", len(fin.Result.Bugs), len(control.Bugs))
	}
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine(t, lines2, "drained clean", 30*time.Second)
}

func mustBench(t *testing.T, name string) recipe.Benchmark {
	t.Helper()
	b, ok := harness.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return b
}

// TestLocalRunAndSubmittedJobAgree: the flag-driven run and the submit
// verb bind the same flags to the same spec, so the same argv is the same
// exploration in both modes: the spec the job ran is the one the local
// verb's binding yields (modulo the tenant the server fills in), and the
// two report equal execution counts and bug sets — race detection and its
// vet arming included, which is what makes their repro tokens
// interchangeable.
func TestLocalRunAndSubmittedJobAgree(t *testing.T) {
	argv := []string{"-bench", "CCEH", "-bugs", "0x1", "-continue"}

	local, code := runCLI(t, argv...)
	if code != 1 {
		t.Fatalf("local run exited %d, want 1 (bugs found):\n%s", code, local)
	}
	var localExecs int
	var localBugs []string
	for _, line := range strings.Split(local, "\n") {
		if strings.HasPrefix(line, "executions") {
			fmt.Sscanf(line, "executions %d", &localExecs)
		}
		if msg, ok := strings.CutPrefix(line, "  ["); ok {
			_, msg, _ = strings.Cut(msg, "] ")
			localBugs = append(localBugs, msg[:strings.LastIndex(msg, " (execution ")])
		}
	}

	srv, lines := startCLI(t, "-jobserver", "127.0.0.1:0", "-jobs-dir", t.TempDir())
	banner := waitLine(t, lines, "job server on ", 10*time.Second)
	addr := strings.Fields(strings.SplitN(banner, "job server on ", 2)[1])[0]
	out, code := runCLI(t, append([]string{"submit", "-addr", addr, "-wait"}, argv...)...)
	if code != 0 {
		t.Fatalf("submit -wait exited %d:\n%s", code, out)
	}
	var fin jobs.Status
	if err := json.Unmarshal([]byte(out), &fin); err != nil || fin.Spec == nil || fin.Result == nil {
		t.Fatalf("submit -wait output is not a finished status (%v):\n%s", err, out)
	}

	want := cliSpec()
	fs := flag.NewFlagSet("local", flag.ContinueOnError)
	want.BindFlags(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	want.Tenant = fin.Spec.Tenant
	if !reflect.DeepEqual(*fin.Spec, want) {
		t.Errorf("the job ran spec\n%+v\nthe local verb binds\n%+v", *fin.Spec, want)
	}
	if fin.Result.Executions != localExecs {
		t.Errorf("job explored %d executions, the local run %d", fin.Result.Executions, localExecs)
	}
	var jobBugs []string
	for _, b := range fin.Result.Bugs {
		jobBugs = append(jobBugs, b.Message)
	}
	sort.Strings(localBugs)
	sort.Strings(jobBugs)
	if len(jobBugs) == 0 || !reflect.DeepEqual(jobBugs, localBugs) {
		t.Errorf("job bugs %q, local bugs %q", jobBugs, localBugs)
	}
	srv.Process.Signal(syscall.SIGTERM)
	waitLine(t, lines, "drained clean", 30*time.Second)
}
