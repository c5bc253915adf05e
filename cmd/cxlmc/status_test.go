package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	cxlmc "repro"
)

// The status surface the command serves around the engine: /metrics,
// /statusz and the SIGUSR1 dump.

// get fetches url and returns its body, failing on any status but 200.
func get(url string) (string, error) {
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// TestStatusServerServesLiveRun scrapes /metrics and /statusz while a
// two-worker exploration is actually running, without -progress: the
// one-second default cadence is what keeps /statusz live. SIGUSR1 then
// prints the status and its worker lines while the run goes on, SIGTERM
// stops it, and the address is closed once the process has exited.
func TestStatusServerServesLiveRun(t *testing.T) {
	// About five seconds of exploring: the checks below take two or three.
	cmd, lines := startCLI(t, "-bench", "P-MassTree", "-keys", "256", "-workers", "2",
		"-metrics-addr", "127.0.0.1:0")
	banner := waitLine(t, lines, "status server on http://", 10*time.Second)
	addr := strings.TrimSuffix(strings.Fields(strings.SplitN(banner, "http://", 2)[1])[0], "/")

	var metrics string
	var p cxlmc.Progress
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no live data within 20s: /metrics\n%s\n/statusz %+v", metrics, p)
		}
		time.Sleep(100 * time.Millisecond)
		var err error
		if metrics, err = get("http://" + addr + "/metrics"); err != nil {
			t.Fatal(err)
		}
		status, err := get("http://" + addr + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(status), &p); err != nil {
			t.Fatalf("/statusz is not a Progress: %v\n%s", err, status)
		}
		if p.Executions > 0 && strings.Contains(metrics, "cxlmc_executions_total") {
			break
		}
	}
	if !strings.Contains(metrics, "cxlmc_workers 2") ||
		!strings.Contains(metrics, "# TYPE cxlmc_exec_steps histogram") {
		t.Fatalf("/metrics scrape missing core series:\n%s", metrics)
	}
	if len(p.Workers) != 2 {
		t.Fatalf("/statusz has %d workers, want 2: %+v", len(p.Workers), p)
	}

	if err := cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	waitLine(t, lines, "cxlmc: status ", 5*time.Second)
	waitLine(t, lines, "cxlmc:   worker ", 5*time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine(t, lines, "stopping at the next execution boundary", 5*time.Second)
	if code := exitCode(t, cmd); code != 0 {
		t.Fatalf("SIGTERM'd run exited %d, want 0", code)
	}
	if _, err := get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("status server still serving after the process exited")
	}
}

// TestBadMetricsAddrFailsRun: an unbindable -metrics-addr (here, a port
// already taken) is a usage error (exit 2) before anything is explored, not
// after hours of exploration.
func TestBadMetricsAddrFailsRun(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	out, code := runCLI(t, "-bench", "CCEH", "-metrics-addr", taken.Addr().String())
	if code != 2 || strings.Contains(out, "executions") {
		t.Fatalf("unbindable -metrics-addr exited %d, want 2 with nothing explored:\n%s", code, out)
	}
}

// TestMetricsAddrRefusedWhereTheModeServes: the job server serves /metrics
// and /statusz on its own address, so a -metrics-addr beside it would be
// ignored; it is refused instead.
func TestMetricsAddrRefusedWhereTheModeServes(t *testing.T) {
	if _, code := runCLI(t, "-jobserver", "127.0.0.1:0", "-jobs-dir", t.TempDir(), "-metrics-addr", "127.0.0.1:0"); code != 2 {
		t.Errorf("-jobserver -metrics-addr exited %d, want 2", code)
	}
}

// TestMetricsSnapshotCountsTheRunAlone: the race detector's vet pre-pass is
// a dry run of its own, so the snapshot's execution count is the run's.
func TestMetricsSnapshotCountsTheRunAlone(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "s.json")
	out, code := runCLI(t, "-bench", "CCEH", "-workers", "1", "-metrics-snapshot", snap)
	if code != 0 {
		t.Fatalf("exited %d:\n%s", code, out)
	}
	var execs int
	for _, line := range strings.Split(out, "\n") {
		fmt.Sscanf(line, "executions %d", &execs)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if execs == 0 || int(m["cxlmc_executions_total"]) != execs {
		t.Fatalf("snapshot counts %v executions, the run printed %d", m["cxlmc_executions_total"], execs)
	}
}
