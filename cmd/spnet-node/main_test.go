package main

import (
	"bytes"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// waitFor polls cond with a generous deadline (CI runs -race on one CPU).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// output is a goroutine-safe buffer: run() writes from the main goroutine
// while assertions read from the test goroutine.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// TestRunShutsDownGracefullyOnSIGTERM boots a real node through run() with
// telemetry enabled, delivers an actual SIGTERM to the process, and checks
// run returns cleanly, reported the drain, and leaked no goroutines.
func TestRunShutsDownGracefullyOnSIGTERM(t *testing.T) {
	// The runtime's signal-delivery goroutine is spawned on first Notify and
	// lives for the rest of the process; warm it up so the leak baseline
	// includes it.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGHUP)
	signal.Stop(warm)
	before := runtime.NumGoroutine()

	var out output
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-telemetry", "127.0.0.1:0",
			"-drain-timeout", "100ms",
		}, &out, nil)
	}()

	// Wait until the node is serving and telemetry answers, so the signal
	// lands on a fully started process.
	waitFor(t, "node startup banner", func() bool {
		s := out.String()
		return strings.Contains(s, "super-peer listening on") &&
			strings.Contains(s, "telemetry on http://")
	})
	telURL := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "telemetry on "); ok {
			telURL = rest // already ends in /metrics
		}
	}
	if telURL == "" {
		t.Fatalf("no telemetry URL in output:\n%s", out.String())
	}
	waitFor(t, "telemetry scrapeable", func() bool {
		resp, err := http.Get(telURL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error: %v", err)
		}
	case <-time.After(15 * time.Second):
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("run did not return after SIGTERM\n%s", buf[:n])
	}
	if !strings.Contains(out.String(), "draining and shutting down") {
		t.Errorf("missing shutdown message in output:\n%s", out.String())
	}

	// Leak check: everything run() started must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRunQueryModeExitsWithoutSignal pins the -query one-shot path: run()
// returns on its own, no signal needed, and still cleans up.
func TestRunQueryModeExitsWithoutSignal(t *testing.T) {
	before := runtime.NumGoroutine()
	var out output
	err := run([]string{
		"-listen", "127.0.0.1:0",
		"-query", "anything",
		"-wait", "50ms",
		"-drain-timeout", "50ms",
	}, &out, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), `results for "anything"`) {
		t.Errorf("missing query report:\n%s", out.String())
	}
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

// TestRunRejectsBadFlags checks run() surfaces errors instead of exiting the
// process, which is what makes it testable.
func TestRunRejectsBadFlags(t *testing.T) {
	var out output
	if err := run([]string{"-routing", "bogus"}, &out, nil); err == nil {
		t.Error("bad -routing accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}
