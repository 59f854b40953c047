package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasemark/internal/obs"
)

func testKey(s string) Key { return KeyOf("test/v1", []byte(s)) }

func TestKeyOfDomainSeparation(t *testing.T) {
	// The domain is length-prefixed, so moving bytes between domain and
	// body must change the key.
	a := KeyOf("ab", []byte("c"))
	b := KeyOf("a", []byte("bc"))
	if a == b {
		t.Fatal("domain/body concatenation collision")
	}
	if KeyOf("d", []byte("x")) != KeyOf("d", []byte("x")) {
		t.Fatal("KeyOf is not deterministic")
	}
	if len(a.String()) != 64 || strings.ToLower(a.String()) != a.String() {
		t.Fatalf("key %q is not 64 lowercase hex chars", a)
	}
}

func TestStoreComputePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("artifact")
	want := []byte(`{"v":1}`)
	computes := 0
	got, out, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { computes++; return want, nil })
	if err != nil || out != Computed || !bytes.Equal(got, want) {
		t.Fatalf("first get: %q, %v, %v", got, out, err)
	}
	got, out, err = s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { computes++; return nil, errors.New("must not run") })
	if err != nil || out != Hit || !bytes.Equal(got, want) {
		t.Fatalf("second get: %q, %v, %v", got, out, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}

	// A fresh Store over the same directory sees the artifact: the disk,
	// not process memory, is the durable cache.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, out, err = s2.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return nil, errors.New("must not run") })
	if err != nil || out != Hit || !bytes.Equal(got, want) {
		t.Fatalf("reopened get: %q, %v, %v", got, out, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("reopened stats = %+v, want 1 disk hit, 0 computes", st)
	}
}

func TestStoreSingleflightDedupe(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("shared")
	var computes atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 16
	outs := make([]Outcome, callers)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, out, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("x"), nil
			})
			if err != nil || string(data) != "x" {
				t.Errorf("caller %d: %q, %v", i, data, err)
			}
			outs[i] = out
		}()
	}
	for s.Stats().Computes == 0 {
	} // wait for a leader to start
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	leaders, joiners := 0, 0
	for _, o := range outs {
		switch o {
		case Computed:
			leaders++
		case Joined:
			joiners++
		}
	}
	if leaders != 1 || joiners != callers-1 {
		t.Fatalf("outcomes: %d leaders, %d joiners, want 1/%d", leaders, joiners, callers-1)
	}
	st := s.Stats()
	if st.Computes != 1 || st.Joins != callers-1 || st.JoinErrs != 0 {
		t.Fatalf("stats = %+v, want 1 compute, %d joins", st, callers-1)
	}
}

func TestStoreErrorsAreNotCached(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("flaky")
	boom := errors.New("boom")
	if _, _, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing compute: err = %v, want boom", err)
	}
	got, out, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || out != Computed || string(got) != "ok" {
		t.Fatalf("retry: %q, %v, %v", got, out, err)
	}
	st := s.Stats()
	if st.Computes != 2 || st.ComputeErrs != 1 {
		t.Fatalf("stats = %+v, want 2 computes, 1 compute_err", st)
	}
}

// TestStoreCrashMidWrite is the crash-safety contract: a writer that dies
// after writing its temporary file but before the rename leaves no visible
// artifact, a reopened store sweeps the debris, and recompute repairs the
// entry.
func TestStoreCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("crash")
	crash := errors.New("simulated crash before rename")
	s.WriteFault = func(string) error { return crash }
	if _, _, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return []byte("partial"), nil }); !errors.Is(err, crash) {
		t.Fatalf("faulted write: err = %v, want crash", err)
	}
	if st := s.Stats(); st.WriteErrs != 1 {
		t.Fatalf("stats = %+v, want 1 write_err", st)
	}

	// No partial artifact is visible: Get misses, and the only file on
	// disk is the orphaned temporary.
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("after crash: Get = (ok=%v, err=%v), want miss", ok, err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("after crash: %d visible artifacts (err %v), want 0", n, err)
	}
	tmps := countTmpFiles(t, dir)
	if tmps != 1 {
		t.Fatalf("after crash: %d temp files, want 1", tmps)
	}

	// Reopen: the sweep removes the debris...
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.SweptTmp != 1 {
		t.Fatalf("reopened stats = %+v, want 1 swept tmp", st)
	}
	if countTmpFiles(t, dir) != 0 {
		t.Fatal("sweep left temp files behind")
	}
	// ...and recompute repairs the entry.
	got, out, err := s2.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return []byte("repaired"), nil })
	if err != nil || out != Computed || string(got) != "repaired" {
		t.Fatalf("repair: %q, %v, %v", got, out, err)
	}
	if got, ok, _ := s2.Get(k); !ok || string(got) != "repaired" {
		t.Fatalf("after repair: Get = (%q, %v), want repaired artifact", got, ok)
	}
}

func countTmpFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), tmpPattern) {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStoreDistinctKeysComputeConcurrently(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Key a's compute blocks until key b's compute has started: this only
	// terminates if distinct keys do not serialize on one lock.
	bStarted := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.GetOrCompute(context.Background(), testKey("a"), func(context.Context) ([]byte, error) {
			<-bStarted
			return []byte("a"), nil
		})
	}()
	go func() {
		defer wg.Done()
		s.GetOrCompute(context.Background(), testKey("b"), func(context.Context) ([]byte, error) {
			close(bStarted)
			return []byte("b"), nil
		})
	}()
	wg.Wait()
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Fatal("Open over a plain file succeeded")
	}
}

func TestMemoComputeOnceAndErrorRetry(t *testing.T) {
	var m Memo[string, int]
	computes := 0
	v, out, err := m.DoOutcome("k", func() (int, error) { computes++; return 7, nil })
	if err != nil || v != 7 || out != Computed {
		t.Fatalf("first DoOutcome: %d, %v, %v", v, out, err)
	}
	v, out, err = m.DoOutcome("k", func() (int, error) { computes++; return -1, nil })
	if err != nil || v != 7 || out != Hit || computes != 1 {
		t.Fatalf("cached DoOutcome: %d, %v, %v (computes %d)", v, out, err, computes)
	}

	boom := errors.New("boom")
	if _, _, err := m.DoOutcome("e", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error DoOutcome: %v", err)
	}
	if v, _, err := m.DoOutcome("e", func() (int, error) { return 3, nil }); err != nil || v != 3 {
		t.Fatalf("retry DoOutcome: %d, %v", v, err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[int, string]
	var computes atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := m.DoOutcome(1, func() (string, error) {
				computes.Add(1)
				once.Do(func() { close(started) })
				<-release
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("DoOutcome: %q, %v", v, err)
			}
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

func TestMemoChainedKeysDoNotDeadlock(t *testing.T) {
	// The service pipeline chains memos: a clustering computes from a
	// trace, which computes from a marker set, which computes from a
	// graph. No lock may be held across a compute call.
	var m Memo[string, int]
	v, _, err := m.DoOutcome("outer", func() (int, error) {
		v, _, err := m.DoOutcome("inner", func() (int, error) { return 1, nil })
		return v, err
	})
	if err != nil || v != 1 {
		t.Fatalf("chained DoOutcome: %d, %v", v, err)
	}
}

// awaitReturn fails the test if done is not closed within 2 s, so a key
// left blocked by a panicking compute fails the test instead of hanging
// the suite.
func awaitReturn(t *testing.T, done <-chan struct{}, who string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2s", who)
	}
}

// A compute that panics must release its key: the panic continues in the
// caller that ran compute, a caller waiting on that computation gets an
// error, nothing is cached, and the next call computes again.
func TestMemoComputePanicReleasesKey(t *testing.T) {
	var m Memo[int, int]
	// The waiter joins the panicking flight unless it reaches the memo
	// only after the flight has ended; that race is rare, and a fresh key
	// retries it.
	for k := 0; k < 100; k++ {
		started, release := make(chan struct{}), make(chan struct{})
		recovered := make(chan any, 1)
		go func() {
			defer func() { recovered <- recover() }()
			m.DoOutcome(k, func() (int, error) {
				close(started)
				<-release
				panic("boom")
			})
		}()
		<-started
		var out Outcome
		var err error
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			_, out, err = m.DoOutcome(k, func() (int, error) { return 0, nil })
		}()
		runtime.Gosched()
		close(release)
		if r := <-recovered; r != "boom" {
			t.Fatalf("the computing caller recovered %v, want the compute's panic", r)
		}
		awaitReturn(t, waited, "a caller waiting on the panicking compute")
		if out != Joined {
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter err = %v, want the compute-panicked error", err)
		}
		var v int
		var out2 Outcome
		next := make(chan struct{})
		go func() {
			defer close(next)
			v, out2, err = m.DoOutcome(k, func() (int, error) { return 7, nil })
		}()
		awaitReturn(t, next, "the next call after the panic")
		if err != nil || v != 7 || out2 != Computed {
			t.Fatalf("next call: %d, %v, %v; want 7 computed", v, out2, err)
		}
		return
	}
	t.Fatal("no waiter ever joined the panicking compute")
}

func TestStoreComputePanicReleasesKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("panics")
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	// A joiner opens its SpanJoin child before it blocks, so once that
	// child exists the waiter is committed to the panicking flight.
	sp := obs.NewTracer().StartSpan("waiter", "")
	var joinErr error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, _, joinErr = s.GetOrCompute(obs.ContextWithSpan(context.Background(), sp), k,
			func(context.Context) ([]byte, error) { return nil, errors.New("waiter ran compute") })
	}()
	for len(sp.Snapshot().Children) == 0 {
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("the leader recovered %v, want the compute's panic", r)
	}
	awaitReturn(t, waited, "a caller waiting on the panicking compute")
	if joinErr == nil || !strings.Contains(joinErr.Error(), "panicked") {
		t.Fatalf("joiner err = %v, want the compute-panicked error", joinErr)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("after the panic: stored %v, err %v; want nothing written", ok, err)
	}
	var data []byte
	var out Outcome
	next := make(chan struct{})
	go func() {
		defer close(next)
		data, out, err = s.GetOrCompute(context.Background(), k,
			func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	}()
	awaitReturn(t, next, "the next call after the panic")
	if err != nil || out != Computed || string(data) != "ok" {
		t.Fatalf("next call: %q, %v, %v; want ok computed", data, out, err)
	}
}

func BenchmarkStoreHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := testKey("bench")
	payload := bytes.Repeat([]byte("x"), 4096)
	if _, _, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, err := s.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return nil, fmt.Errorf("miss") }); err != nil || out != Hit {
			b.Fatal(out, err)
		}
	}
}
