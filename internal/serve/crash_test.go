package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
)

// buildRild compiles the daemon binary once per test run.
func buildRild(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rild")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rild")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build rild: %v\n%s", err, out)
	}
	return bin
}

// startRild launches the daemon against state and waits for its
// listening line, returning the process and a client bound to the
// actual port.
func startRild(t *testing.T, bin, state string) (*exec.Cmd, *Client) {
	t.Helper()
	cmd := exec.Command(bin,
		"-state", state,
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-default-timeout", "10m",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "rild: listening on "); ok {
				addr <- rest
				return
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = cmd.Process.Kill()
			t.Fatal("rild exited before announcing its address")
		}
		return cmd, &Client{Base: "http://" + a}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("rild did not announce its address in 30s")
	}
	return nil, nil
}

// slowAttackSpec locks a quarter-scale c7552 with two 8x8 RIL blocks —
// the same ~5s target ci.sh's kill-and-resume smoke uses — so a
// SIGKILL lands mid-DIP-loop with progress already journaled.
func slowAttackSpec(t *testing.T) *JobSpec {
	t.Helper()
	prof, ok := circuit.ProfileByName("c7552")
	if !ok {
		t.Fatal("no c7552 profile")
	}
	orig, err := prof.Synthesize(0.25)
	if err != nil {
		t.Fatal(err)
	}
	size, err := core.ParseSize("8x8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 2, Size: size, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var bench strings.Builder
	if err := res.Locked.WriteBench(&bench); err != nil {
		t.Fatal(err)
	}
	var key strings.Builder
	for i, name := range res.KeyNames {
		bit := 0
		if res.Key[i] {
			bit = 1
		}
		fmt.Fprintf(&key, "%s=%d\n", name, bit)
	}
	return &JobSpec{
		Type:   TypeAttack,
		Attack: &AttackSpec{Bench: bench.String(), Key: key.String()},
	}
}

// Metrics fetches the raw /metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: metrics: %s", resp.Status)
	}
	return string(body), nil
}

// metricValue extracts one metric's value from /metrics text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestDaemonCrashResume is the end-to-end crash-safety proof: a long
// attack is submitted over HTTP, the daemon is SIGKILLed mid-DIP-loop,
// a fresh daemon over the same state directory resumes the job from
// its journal, and the finished result shows journaled DIPs were
// replayed — with the restarted process's process-wide oracle counter
// (rild_oracle_queries_total) confirming the resumed run paid only for
// the DIPs the journal did not already hold.
func TestDaemonCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	bin := buildRild(t)
	state := t.TempDir()
	spec := slowAttackSpec(t)

	first, client := startRild(t, bin, state)
	defer func() { _ = first.Process.Kill() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	id, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the DIP loop has journaled real progress, then
	// SIGKILL — no drain, no flush, the hard crash.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, err := client.Job(ctx, id)
		if err == nil && terminal(v.State) {
			t.Skipf("attack finished in %v before the kill could land; machine too fast for the crash window", v.Seconds)
		}
		if err == nil && v.Progress != nil && v.Progress.Iteration >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attack never reached iteration 3")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = first.Wait()

	second, client2 := startRild(t, bin, state)
	defer func() { _ = second.Process.Kill() }()

	v, err := client2.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("resumed job: state=%s error=%q", v.State, v.Error)
	}
	var ar AttackResult
	if err := json.Unmarshal(v.Result, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Status != "key-found" {
		t.Fatalf("resumed attack status %q: %+v", ar.Status, ar)
	}
	if ar.Replayed < 3 {
		t.Fatalf("resumed attack replayed %d DIPs, want >= 3 (journal ignored?)", ar.Replayed)
	}
	if ar.Replayed >= ar.Iterations {
		t.Logf("note: all %d DIPs replayed; the kill landed after the last DIP", ar.Iterations)
	}

	// Counter verification: the restarted process ran exactly this one
	// job, so its process-wide oracle counter must equal the job's
	// reported live queries — zero re-queries for journaled DIPs.
	metrics, err := client2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := metricValue(t, metrics, "rild_oracle_queries_total")
	if total != int64(ar.Queries) {
		t.Fatalf("daemon issued %d oracle queries but the job accounts for %d — the resume re-queried journaled DIPs",
			total, ar.Queries)
	}
	t.Logf("resume: %d iterations, %d replayed, %d live queries", ar.Iterations, ar.Replayed, ar.Queries)

	// Graceful exit of the second daemon must leave no temp litter.
	if err := second.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		defer close(waitErr)
		waitErr <- second.Wait()
	}()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited nonzero after SIGINT drain: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not exit within a minute of SIGINT")
	}
	for _, sub := range []string{"specs", "ckpt"} {
		entries, err := os.ReadDir(filepath.Join(state, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("drained daemon left temp file %s/%s", sub, e.Name())
			}
		}
	}
}
