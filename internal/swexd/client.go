package swexd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"swex/internal/sweep"
)

// Client drives a remote coordinator from an experiment program. It
// implements the swex.JobRunner contract: Run submits a matrix, waits for
// every job to reach a terminal state, and returns the results in
// submission order — so code written against the in-process Runner (the
// exhibit assemblers in particular) renders byte-identical output when
// pointed at a coordinator instead.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://host:7009".
	Base string
	// Salt is extra key material the coordinator mixes into every job
	// hash (SubmitRequest.Salt), isolating experimental branches that
	// share its cache. The in-process runner keys jobs unsalted.
	Salt string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Poll is the status poll interval used when the event stream is
	// unavailable (0 = 200ms).
	Poll time.Duration
}

// httpClient returns the effective transport.
func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// poll returns the effective poll interval.
func (cl *Client) poll() time.Duration {
	if cl.Poll > 0 {
		return cl.Poll
	}
	return 200 * time.Millisecond
}

// getJSON decodes one GET endpoint into out.
func (cl *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+path, nil)
	if err != nil {
		return fmt.Errorf("swexd: client: %w", err)
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("swexd: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("swexd: client: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("swexd: client: GET %s: %w", path, err)
	}
	return nil
}

// Submit posts one experiment matrix and returns its sweep ID.
func (cl *Client) Submit(ctx context.Context, jobs []sweep.Job) (string, error) {
	body, err := json.Marshal(SubmitRequest{Jobs: jobs, Salt: cl.Salt})
	if err != nil {
		return "", fmt.Errorf("swexd: client: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.Base+"/sweeps", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("swexd: client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("swexd: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", fmt.Errorf("swexd: client: submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var rep SubmitReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return "", fmt.Errorf("swexd: client: submit: %w", err)
	}
	return rep.ID, nil
}

// Status fetches one sweep's full per-job snapshot.
func (cl *Client) Status(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := cl.getJSON(ctx, "/sweeps/"+id, &st)
	return st, err
}

// Results fetches one sweep's result vector.
func (cl *Client) Results(ctx context.Context, id string) (SweepResults, error) {
	var res SweepResults
	err := cl.getJSON(ctx, "/sweeps/"+id+"/results", &res)
	return res, err
}

// Workers fetches the coordinator's worker listing.
func (cl *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var ws []WorkerInfo
	err := cl.getJSON(ctx, "/workers", &ws)
	return ws, err
}

// Vars fetches the coordinator's counters.
func (cl *Client) Vars(ctx context.Context) (map[string]int64, error) {
	var vars map[string]int64
	err := cl.getJSON(ctx, "/vars", &vars)
	return vars, err
}

// SweepList fetches the coordinator's sweep listing.
func (cl *Client) SweepList(ctx context.Context) ([]SweepSummary, error) {
	var sweeps []SweepSummary
	err := cl.getJSON(ctx, "/sweeps", &sweeps)
	return sweeps, err
}

// Wait blocks until every job of the sweep is terminal. It follows the
// NDJSON event stream when it can (ending exactly when the last job
// lands) and degrades to status polling when the stream drops.
func (cl *Client) Wait(ctx context.Context, id string) error {
	cl.stream(ctx, id)
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			return err
		}
		if st.Done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(cl.poll()):
		}
	}
}

// stream follows the event feed to EOF (the server closes it when the
// sweep completes). Any error just means Wait falls back to polling.
func (cl *Client) stream(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+"/sweeps/"+id+"/events", nil)
	if err != nil {
		return
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
	}
}

// Run implements the swex.JobRunner contract: submit, wait, collect, and
// fail fast on the first failed job by submission order — the same
// deterministic error rule as the in-process Runner.
func (cl *Client) Run(ctx context.Context, jobs []sweep.Job) ([]sweep.Result, error) {
	id, err := cl.Submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	if err := cl.Wait(ctx, id); err != nil {
		return nil, err
	}
	res, err := cl.Results(ctx, id)
	if err != nil {
		return nil, err
	}
	if len(res.Results) != len(jobs) {
		return nil, fmt.Errorf("swexd: client: sweep %s returned %d results for %d jobs", id, len(res.Results), len(jobs))
	}
	out := make([]sweep.Result, len(jobs))
	for i, jr := range res.Results {
		if jr.State == StateFailed {
			return nil, fmt.Errorf("sweep: job %d (%s): %s", i, jr.Desc, jr.Err)
		}
		if jr.Result == nil {
			return nil, fmt.Errorf("swexd: client: sweep %s job %d (%s) terminal without result (state %s)", id, i, jr.Desc, jr.State)
		}
		out[i] = *jr.Result
	}
	return out, nil
}
