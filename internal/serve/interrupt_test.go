package serve

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
)

// TestDrainInterruptsAttacks drains a daemon while an exact and an
// AppSAT attack job run. Both must land interrupted — spec kept, no
// done envelope, never a timeout result — and a restarted daemon must
// finish them, resuming the exact attack from its journal: the
// process-wide oracle counter grows by exactly the two jobs' live
// queries, so no journaled DIP was queried again.
func TestDrainInterruptsAttacks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two multi-second attacks; skipped in -short")
	}
	dir := t.TempDir()
	first, client := startServer(t, Options{StateDir: dir, Workers: 2})
	ctx := testCtx(t)
	exact := slowAttackSpec(t)
	approx := *exact
	approxAttack := *exact.Attack
	approxAttack.AppSAT = true
	approx.Attack = &approxAttack
	exactID, err := client.Submit(ctx, exact)
	if err != nil {
		t.Fatal(err)
	}
	approxID, err := client.Submit(ctx, &approx)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := client.Job(ctx, exactID)
		if err != nil {
			t.Fatal(err)
		}
		av, err := client.Job(ctx, approxID)
		if err != nil {
			t.Fatal(err)
		}
		if terminal(ev.State) || terminal(av.State) {
			t.Skipf("an attack finished before the drain (exact %s, appsat %s); machine too fast for the window", ev.State, av.State)
		}
		if ev.Progress != nil && ev.Progress.Iteration >= 3 && av.State == StateRunning {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	first.Drain(0)
	for _, id := range []string{exactID, approxID} {
		js, ok := first.job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v := js.view(); v.State != StateInterrupted || v.Result != nil {
			t.Errorf("drained job %s: state=%s result=%s error=%q, want interrupted without a result", id, v.State, v.Result, v.Error)
		}
		if _, err := os.Stat(first.specPath(id)); err != nil {
			t.Errorf("drained job %s lost its spec: %v", id, err)
		}
		if e, done := first.manifest.completed(id); done {
			t.Errorf("drained job %s has a done envelope: %s", id, e.Value)
		}
	}

	before := attack.OracleQueriesTotal()
	_, client2 := startServer(t, Options{StateDir: dir, Workers: 2})
	var results [2]AttackResult
	for i, id := range []string{exactID, approxID} {
		v, err := client2.WaitDone(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("resumed job %s: state=%s error=%q", id, v.State, v.Error)
		}
		if err := json.Unmarshal(v.Result, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if results[0].Status != "key-found" || results[0].Replayed == 0 {
		t.Errorf("resumed exact attack: %+v; want key-found with journaled DIPs replayed", results[0])
	}
	metrics, err := client2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	live := int64(results[0].Queries + results[1].Queries)
	if got := metricValue(t, metrics, "rild_oracle_queries_total") - before; got != live {
		t.Errorf("restarted daemon issued %d oracle queries, the jobs account for %d live ones", got, live)
	}
}

// TestJobDeadlineFailsAttack: the whole-job deadline (JobSpec.TimeoutMS)
// expiring mid-attack fails the job; only the attack's own budget
// (AttackSpec.TimeoutMS) yields the paper's ∞ verdict.
func TestJobDeadlineFailsAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("locks a quarter-scale c7552; skipped in -short")
	}
	_, client := startServer(t, Options{Workers: 1})
	ctx := testCtx(t)
	spec := slowAttackSpec(t)
	spec.TimeoutMS = 300
	id, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("job past its deadline: state=%s error=%q result=%s, want failed on the deadline", v.State, v.Error, v.Result)
	}
}
