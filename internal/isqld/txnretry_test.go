package isqld

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"worldsetdb/internal/store"
)

// TestBackgroundSweepEvictsIdleTxn: an abandoned sticky transaction is
// rolled back by the background sweeper with NO further request
// arriving — the quiet-server case the in-request eviction alone cannot
// cover (its staging snapshot would stay pinned indefinitely).
func TestBackgroundSweepEvictsIdleTxn(t *testing.T) {
	cat := store.New(nil)
	srv := New(cat, WithSessionTTL(30*time.Millisecond))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec", "create table T (A);"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	if code, out := postSession(t, ts.URL+"/exec", "tok", "begin; insert into T values (1);"); code != http.StatusOK {
		t.Fatalf("begin: %d %s", code, out)
	}
	srv.mu.Lock()
	live := len(srv.sessions)
	srv.mu.Unlock()
	if live != 1 {
		t.Fatalf("sticky session not registered: %d live", live)
	}
	// No requests from here on: only the sweeper can evict.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		live = len(srv.sessions)
		srv.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background sweep never evicted the idle session (%d live)", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The evicted transaction was rolled back, not committed.
	if code, out := post(t, ts.URL+"/exec", "select count(*) as N from T;"); code != http.StatusOK || !strings.Contains(out, "\n0\n") {
		t.Fatalf("evicted transaction leaked: %d\n%s", code, out)
	}
}

// TestConcurrentTxnWritersRetry: BEGIN/COMMIT scripts from concurrent
// stateless clients conflict under first-committer-wins; with the
// server's automatic retry every script must succeed and every row
// land (run under -race in CI). The catalog is WAL-backed so group
// commit is live: a retry must wait for the winner's coalesced fsync
// to publish, not spin its budget against the in-flight version.
func TestConcurrentTxnWritersRetry(t *testing.T) {
	dir := t.TempDir()
	cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wals[0].Close()
	srv := New(cat, WithTxnRetries(32))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec", "create table T (A, B);"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	const writers = 8
	var wg sync.WaitGroup
	fails := make([]string, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			script := fmt.Sprintf("begin; insert into T values (%d, %d); insert into T values (%d, %d); commit;",
				g, 1, g, 2)
			code, out := post(t, ts.URL+"/exec", script)
			if code != http.StatusOK {
				fails[g] = fmt.Sprintf("status %d: %s", code, out)
			}
		}(g)
	}
	wg.Wait()
	for g, f := range fails {
		if f != "" {
			t.Fatalf("writer %d failed despite retry: %s", g, f)
		}
	}
	code, out := post(t, ts.URL+"/exec", "select count(*) as N from T;")
	if code != http.StatusOK || !strings.Contains(out, fmt.Sprintf("\n%d\n", writers*2)) {
		t.Fatalf("want %d rows after concurrent transactional writers, got:\n%s", writers*2, out)
	}
}

// TestConcurrentTxnWritersNoRetrySurfacesConflict: without retries a
// transaction that loses first-committer-wins surfaces as a 422 whose
// body names the relation that moved. Racing stateless writers conflict
// only when their scripts happen to overlap — with cheap inserts on a
// few cores they mostly do not — so a sticky session then interleaves
// one deterministically: BEGIN and INSERT, a stateless INSERT on the
// same table, COMMIT.
func TestConcurrentTxnWritersNoRetrySurfacesConflict(t *testing.T) {
	cat := store.New(nil)
	srv := New(cat) // retries disabled
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec", "create table T (A);"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	lost := func(code int, out string) bool {
		if code == http.StatusOK || !strings.Contains(out, "conflict") {
			return false
		}
		if !strings.Contains(out, `relation "T" changed`) {
			t.Errorf("conflict body does not name relation T:\n%s", out)
		}
		return true
	}
	const writers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			lost(post(t, ts.URL+"/exec", fmt.Sprintf("begin; insert into T values (%d); commit;", g)))
		}(g)
	}
	close(start)
	wg.Wait()

	if code, out := postSession(t, ts.URL+"/exec", "loser", "begin; insert into T values (100);"); code != http.StatusOK {
		t.Fatalf("begin: %d %s", code, out)
	}
	if code, out := post(t, ts.URL+"/exec", "insert into T values (101);"); code != http.StatusOK {
		t.Fatalf("interloper: %d %s", code, out)
	}
	if code, out := postSession(t, ts.URL+"/exec", "loser", "commit;"); !lost(code, out) {
		t.Fatalf("commit after a same-table interloper: want a 422 conflict, got %d\n%s", code, out)
	}
}
