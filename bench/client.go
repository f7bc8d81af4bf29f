package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"worldsetdb/internal/isqld"
	"worldsetdb/internal/store"
	"worldsetdb/internal/wsd"
)

// oracle records, from an in-process server over the same seed catalog,
// the body every fixed request must return, and the probe's.
func oracle(db *wsd.DecompDB, w workload, clients int, fixed *fixedSet) (want []string, probeWant string, err error) {
	srv := isqld.New(store.New(db))
	defer srv.Close()
	h := srv.Handler()
	do := func(r request) (string, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+r.endpoint, strings.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("oracle: %s %q: status %d: %s", r.endpoint, r.body, rec.Code, rec.Body)
		}
		return rec.Body.String(), nil
	}
	for _, r := range w.setupRequests(clients) {
		if _, err := do(r); err != nil {
			return nil, "", err
		}
	}
	want = make([]string, len(fixed.reqs))
	for i, r := range fixed.reqs {
		if want[i], err = do(r); err != nil {
			return nil, "", err
		}
	}
	probeWant, err = do(probe)
	return want, probeWant, err
}

// sample is one request of the measured window as its client saw it.
type sample struct {
	class   string
	latency time.Duration // from the first send, resends included
	resends int
	failed  bool
}

// clientResult is what one closed-loop client brings back.
type clientResult struct {
	samples  []sample
	acked    []ackRow // every write the server acknowledged, warm-up included
	firstErr string
}

// conflictResends is how often a client re-sends a script refused with
// a transaction conflict before it counts the request as failed.
const conflictResends = 5

// runClient drives one keep-alive connection closed-loop: the next
// request goes out when the previous one is answered. Requests answered
// before measureFrom warm the server up and are not sampled.
func runClient(url string, g *generator, want []string, measureFrom, until time.Time) clientResult {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	var res clientResult
	fail := func(r request, why string) {
		if res.firstErr == "" {
			res.firstErr = fmt.Sprintf("%s %q: %s", r.endpoint, r.body, why)
		}
	}
	for time.Now().Before(until) {
		r, idx := g.next()
		start := time.Now()
		s := sample{class: r.class}
		for {
			status, body, err := post(hc, url, r)
			switch {
			case err != nil:
				// The connection is gone and most likely the server: one
				// failure tells it, a loop of instant ones would not add.
				fail(r, err.Error())
				s.failed = true
				res.samples = append(res.samples, s)
				return res
			case status == http.StatusUnprocessableEntity && strings.Contains(body, "transaction conflict") && s.resends < conflictResends:
				s.resends++
				continue
			case status != http.StatusOK:
				s.failed = true
				fail(r, fmt.Sprintf("status %d: %s", status, body))
			case idx >= 0 && body != want[idx]:
				s.failed = true
				fail(r, "answer differs from the in-process oracle's")
			default:
				res.acked = append(res.acked, r.rows...)
			}
			break
		}
		end := time.Now()
		s.latency = end.Sub(start)
		if !start.Before(measureFrom) && !end.After(until) {
			res.samples = append(res.samples, s)
		}
	}
	return res
}

// runClients runs one generator per client and returns when all have
// stopped.
func runClients(url string, gens []*generator, want []string, measureFrom, until time.Time) []clientResult {
	results := make([]clientResult, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runClient(url, g, want, measureFrom, until)
		}()
	}
	wg.Wait()
	return results
}

// lostWrites reads every written table back and counts acknowledged
// rows that are not there.
func lostWrites(s *server, results []clientResult) (int, error) {
	acked := map[string][]int{}
	for _, r := range results {
		for _, row := range r.acked {
			acked[row.table] = append(acked[row.table], row.seq)
		}
	}
	lost := 0
	for table, seqs := range acked {
		status, body, err := post(s.http, s.url, request{endpoint: "exec", body: "select possible S from " + table + ";"})
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("reading %s back: status %d, %v", table, status, err)
		}
		have := map[int]bool{}
		for _, line := range strings.Split(body, "\n") {
			if n, err := strconv.Atoi(strings.TrimSpace(line)); err == nil {
				have[n] = true
			}
		}
		for _, seq := range seqs {
			if !have[seq] {
				lost++
			}
		}
	}
	return lost, nil
}
