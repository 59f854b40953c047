// Package store provides the persistence layer of the phased service: a
// content-addressed, disk-backed artifact store with in-process
// singleflight.
//
// Artifacts are immutable byte blobs addressed by a SHA-256 Key computed
// over the canonical encoding of the request that produces them — the same
// request always names the same artifact, so identical work dedupes across
// requests, across process restarts, and across processes sharing a
// directory. Writes are crash-safe: a blob is written to a temporary file
// in the same directory, synced, and atomically renamed into place, so a
// reader can never observe a partial artifact; leftover temporaries from a
// crashed writer are swept on Open.
//
// GetOrCompute extends the singleflight pattern of Memo (memo.go) from an
// in-memory compute-once cache to a disk-backed one: concurrent
// requesters of the same key block on one leader's disk-check-then-compute
// flight instead of computing redundantly, and — exactly like Memo —
// errors are not cached, so the flight of a failed compute is forgotten
// and the next caller retries from scratch. Unlike Memo, a finished
// flight is dropped from memory: the disk is the durable cache, and
// process memory holds only in-progress work.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"phasemark/internal/obs"
)

// Request-scoped span names GetOrCompute attaches to the caller's
// obs.Span (when the context carries one). Get/Compute/Write are
// the flight leader's sequential phases; Join is a non-leader's wait on
// an in-flight computation. Exported so telemetry consumers (the stress
// suite's consistency checks) reference the same strings the store emits.
const (
	SpanGet     = "store.get"
	SpanCompute = "store.compute"
	SpanWrite   = "store.write"
	SpanJoin    = "store.join"
)

// Process-wide store metrics, mirrored from every store's local stats so
// cache behavior is visible on the /metrics endpoint. A "disk_hit" found
// the artifact on disk, a "compute" ran the producer, a "join" waited on
// another caller's in-flight work; see Stats for the full taxonomy.
var (
	obsDiskHits    = obs.NewCounter("store.disk_hit")
	obsComputes    = obs.NewCounter("store.compute")
	obsJoins       = obs.NewCounter("store.join")
	obsJoinErrs    = obs.NewCounter("store.join_err")
	obsComputeErrs = obs.NewCounter("store.compute_err")
	obsWriteErrs   = obs.NewCounter("store.write_err")
	obsSweeps      = obs.NewCounter("store.swept_tmp")
	obsBytesIn     = obs.NewCounter("store.bytes_written")
	obsBytesOut    = obs.NewCounter("store.bytes_read")
)

// Key is a content address: SHA-256 over a domain-separated canonical
// request encoding.
type Key [sha256.Size]byte

// KeyOf derives the key for one canonical request encoding. The domain
// (e.g. the endpoint path plus a format version) is length-prefixed before
// hashing so distinct (domain, body) pairs can never collide by
// concatenation.
func KeyOf(domain string, canonical []byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(domain)))
	h.Write(n[:])
	h.Write([]byte(domain))
	h.Write(canonical)
	var k Key
	h.Sum(k[:0])
	return k
}

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short renders the key's first four bytes as hex — the span/log label
// form, unambiguous enough for debugging without 64-character names.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// Outcome reports how GetOrCompute satisfied a request.
type Outcome int

// GetOrCompute outcomes.
const (
	// Hit: the artifact was already on disk.
	Hit Outcome = iota
	// Computed: this caller led the flight and ran the producer.
	Computed
	// Joined: another caller's in-flight computation was awaited.
	Joined
)

var outcomeNames = [...]string{"hit", "computed", "joined"}

// String names the outcome (stable; used in HTTP cache headers).
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Stats is a point-in-time read of one store's access counts.
type Stats struct {
	DiskHits    uint64 // artifact found on disk (no compute)
	Computes    uint64 // producer ran (leader, artifact absent)
	Joins       uint64 // waited on an in-flight compute that succeeded
	JoinErrs    uint64 // waited on an in-flight compute whose leader failed
	ComputeErrs uint64 // computes whose producer returned an error
	WriteErrs   uint64 // computes whose artifact failed to persist
	SweptTmp    uint64 // leftover temp files removed by Open
}

// Store is a content-addressed artifact directory. It is safe for
// concurrent use by multiple goroutines; multiple processes may share a
// directory (atomic renames keep visible artifacts whole), though the
// singleflight dedupe is per-process.
type Store struct {
	dir string

	mu       sync.Mutex
	inflight map[Key]*flight[[]byte]

	diskHits, computes, joins, joinErrs, computeErrs, writeErrs, sweptTmp atomic.Uint64

	// WriteFault, when non-nil, is called after the temporary file is
	// written but before it is renamed into place — the crash-injection
	// point for tests. A returned error aborts the write, leaving the
	// temporary behind exactly as a crashed process would.
	WriteFault func(tmpPath string) error
}

// tmpPattern marks in-progress writes; Open sweeps anything matching it.
const tmpPattern = ".tmp-"

// Open creates (if needed) the store directory and sweeps temporary files
// left behind by crashed writers. The sweep makes crash recovery explicit:
// a partial write is garbage to collect, never an artifact to serve.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, inflight: map[Key]*flight[[]byte]{}}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), tmpPattern) {
			if rerr := os.Remove(path); rerr != nil {
				return rerr
			}
			s.sweptTmp.Add(1)
			obsSweeps.Inc()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: sweeping %s: %w", dir, err)
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path shards artifacts by the first key byte so one directory never holds
// the whole corpus.
func (s *Store) path(k Key) string {
	hx := k.String()
	return filepath.Join(s.dir, hx[:2], hx[2:])
}

// Get reads the artifact for k from disk, reporting whether it exists.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	data, err := os.ReadFile(s.path(k))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", k, err)
	}
	obsBytesOut.Add(uint64(len(data)))
	return data, true, nil
}

// GetOrCompute returns the artifact for k, computing and persisting it if
// absent. Concurrent callers with the same key share one flight: the
// leader checks the disk and (on miss) runs compute; everyone else blocks
// on the result. A compute or persist error is returned to the leader and
// every joiner but is not cached — the flight is forgotten and the next
// caller starts fresh, so a transient failure cannot poison the key. A
// panicking compute fails its flight the same way: joiners get an
// error, nothing is written, and the panic continues in the leader.
//
// When ctx carries an obs.Span, the flight's phases attach to it as child
// spans (SpanGet / SpanCompute / SpanWrite for the leader, SpanJoin for a
// joiner), and compute receives a context whose span is the compute span,
// so pipeline stages chain their own sub-spans under it.
//
// compute runs with no store lock held, so a producer may freely issue
// GetOrCompute for *other* keys (pipeline stages chain artifacts);
// re-entering the same key from its own producer deadlocks, exactly like
// the experiments cell it generalizes.
func (s *Store) GetOrCompute(ctx context.Context, k Key, compute func(context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	s.mu.Lock()
	if f := s.inflight[k]; f != nil {
		s.mu.Unlock()
		sp := obs.SpanFromContext(ctx).Child(SpanJoin, k.Short())
		<-f.ch
		sp.End()
		if f.err != nil {
			s.joinErrs.Add(1)
			obsJoinErrs.Inc()
		} else {
			s.joins.Add(1)
			obsJoins.Inc()
		}
		return f.val, Joined, f.err
	}
	f := newFlight[[]byte]()
	s.inflight[k] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(f.ch)
	}()

	var outcome Outcome
	f.val, outcome, f.err = s.lead(ctx, k, compute)
	return f.val, outcome, f.err
}

// lead is the flight leader's work: disk check, then compute + persist,
// each phase a child span of the request (when ctx carries one).
func (s *Store) lead(ctx context.Context, k Key, compute func(context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	parent := obs.SpanFromContext(ctx)
	gsp := parent.Child(SpanGet, k.Short())
	data, ok, err := s.Get(k)
	if err != nil {
		gsp.End()
		return nil, Hit, err
	}
	if ok {
		gsp.SetTag("cache", Hit.String())
		gsp.End()
		s.diskHits.Add(1)
		obsDiskHits.Inc()
		return data, Hit, nil
	}
	gsp.SetTag("cache", "miss")
	gsp.End()
	s.computes.Add(1)
	obsComputes.Inc()
	csp := parent.Child(SpanCompute, k.Short())
	data, err = compute(obs.ContextWithSpan(ctx, csp))
	csp.End()
	if err != nil {
		s.computeErrs.Add(1)
		obsComputeErrs.Inc()
		return nil, Computed, err
	}
	wsp := parent.Child(SpanWrite, k.Short())
	err = s.put(k, data)
	wsp.End()
	if err != nil {
		s.writeErrs.Add(1)
		obsWriteErrs.Inc()
		return nil, Computed, err
	}
	return data, Computed, nil
}

// put persists one artifact crash-safely: temp file in the destination
// directory, write, sync, rename. Rename is atomic on POSIX filesystems,
// so concurrent writers of the same key (two processes sharing the
// directory) race benignly — the content is identical by construction.
func (s *Store) put(k Key, data []byte) error {
	dst := s.path(k)
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("store: write %s: %w", k, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(dst)+tmpPattern+"*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", k, err)
	}
	// On any failure below the temporary is left for Open's sweep — never
	// half-renamed into the visible namespace.
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", k, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", k, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", k, err)
	}
	if s.WriteFault != nil {
		if err := s.WriteFault(tmp.Name()); err != nil {
			return fmt.Errorf("store: write %s: %w", k, err)
		}
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: publish %s: %w", k, err)
	}
	obsBytesIn.Add(uint64(len(data)))
	return nil
}

// Len counts the artifacts currently visible in the store (a directory
// walk; intended for tests and stress reporting, not hot paths).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.Contains(d.Name(), tmpPattern) {
			n++
		}
		return nil
	})
	return n, err
}

// Stats reads the store's access counts. Counts are loaded individually; a
// snapshot taken during concurrent flights is consistent per counter, not
// across counters.
func (s *Store) Stats() Stats {
	return Stats{
		DiskHits:    s.diskHits.Load(),
		Computes:    s.computes.Load(),
		Joins:       s.joins.Load(),
		JoinErrs:    s.joinErrs.Load(),
		ComputeErrs: s.computeErrs.Load(),
		WriteErrs:   s.writeErrs.Load(),
		SweptTmp:    s.sweptTmp.Load(),
	}
}
