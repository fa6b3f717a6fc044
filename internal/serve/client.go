package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/netlist"
)

// Client is a minimal rild API client; cmd/rild's -load mode and the
// crash-safety tests drive the daemon through it.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8372"
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// Submit posts a job spec and returns the assigned ID.
func (c *Client) Submit(ctx context.Context, spec *JobSpec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("serve: submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("serve: submit: response carries no id")
	}
	return out.ID, nil
}

// Job fetches one job's view.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: job %s: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// terminalStates are the states WaitDone stops on.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// WaitDone polls a job until it reaches a terminal state. Transport
// errors are retried (the daemon may be restarting — resumed jobs
// finish after it comes back), so only ctx expiry gives up.
func (c *Client) WaitDone(ctx context.Context, id string) (*JobView, error) {
	backoff := 10 * time.Millisecond
	for {
		v, err := c.Job(ctx, id)
		if err == nil && terminal(v.State) {
			return v, nil
		}
		if ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("job %s still %s", id, v.State)
			}
			return nil, fmt.Errorf("serve: wait %s: %w (%v)", id, ctx.Err(), err)
		}
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// c17Bench is ISCAS-85 c17 (6 NAND gates, public domain) inline, so
// the load generator needs no files on the daemon's host.
const c17Bench = `INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G16, G19)
G23 = NAND(G10, G16)
`

// LoadTarget is one pre-locked attack target for the load generator.
type LoadTarget struct {
	Bench string
	Key   string
}

// MakeLoadTargets locks c17 with 5 XOR key gates (c17 has six gates;
// XOR key gates cannot outnumber them) under n distinct seeds, yielding
// n small attack targets (a c17-class SAT attack completes in
// milliseconds).
func MakeLoadTargets(n int) ([]LoadTarget, error) {
	orig, err := netlist.ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		return nil, err
	}
	targets := make([]LoadTarget, 0, n)
	for i := 0; i < n; i++ {
		l, err := baselines.XORLock(orig, 5, int64(i+1))
		if err != nil {
			return nil, err
		}
		var bench strings.Builder
		if err := l.Netlist.WriteBench(&bench); err != nil {
			return nil, err
		}
		key := strings.Join(l.Netlist.KeyLines(l.KeyPos, l.Key), "\n") + "\n"
		targets = append(targets, LoadTarget{Bench: bench.String(), Key: key})
	}
	return targets, nil
}
