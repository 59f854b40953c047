package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"phasemark/internal/obs"
)

// waitFull blocks until the gate's admission semaphore is fully occupied,
// so saturation assertions don't race launched-but-not-yet-enqueued
// callers.
func waitFull(t *testing.T, g *Gate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(g.tokens) < cap(g.tokens) {
		if time.Now().After(deadline) {
			t.Fatalf("gate never filled: %d/%d tokens", len(g.tokens), cap(g.tokens))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestGateBoundsAndRejects(t *testing.T) {
	g := NewGate(2, 1)

	// Fill both execution slots and the one queue place.
	block := make(chan struct{})
	running := make(chan struct{}, 3)
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			done <- g.Do(context.Background(), func() error {
				running <- struct{}{}
				<-block
				return nil
			})
		}()
	}
	// Two of the three reach execution; the third holds the queue place.
	for i := 0; i < 2; i++ {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("execution slots did not fill")
		}
	}
	waitFull(t, g)

	// The gate is now full: the fourth caller is shed immediately.
	if err := g.Do(context.Background(), func() error { return nil }); err != ErrSaturated {
		t.Fatalf("overflow Do = %v, want ErrSaturated", err)
	}

	close(block)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted work errored: %v", err)
		}
	}

	// Capacity frees up again after completion.
	if err := g.Do(context.Background(), func() error { return nil }); err != nil {
		t.Fatalf("post-completion Do = %v", err)
	}

	// Draining rejects everything, even with free capacity.
	g.StartDrain()
	if !g.Draining() {
		t.Error("Draining() = false after StartDrain")
	}
	if err := g.Do(context.Background(), func() error { return nil }); err != ErrDraining {
		t.Fatalf("draining Do = %v, want ErrDraining", err)
	}
}

func TestGateClampsDegenerateBounds(t *testing.T) {
	g := NewGate(0, -5) // clamps to 1 worker, 0 queue
	block := make(chan struct{})
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- g.Do(context.Background(), func() error { close(started); <-block; return nil }) }()
	<-started
	waitFull(t, g)
	if err := g.Do(context.Background(), func() error { return nil }); err != ErrSaturated {
		t.Fatalf("second Do on a 1/0 gate = %v, want ErrSaturated", err)
	}
	close(block)
	if err := <-errc; err != nil {
		t.Fatalf("blocked work errored: %v", err)
	}
}

// TestGateQueuedCancel checks that a request whose context ends while it
// waits for a slot leaves the queue at once with the context's error and
// never runs: its token, its service.queued count and its req.queue span
// are released, and the server answers it 499, not 500.
func TestGateQueuedCancel(t *testing.T) {
	g := NewGate(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	held := make(chan error, 1)
	go func() { held <- g.Do(context.Background(), func() error { close(started); <-block; return nil }) }()
	<-started
	defer func() {
		close(block)
		if err := <-held; err != nil {
			t.Errorf("slot holder errored: %v", err)
		}
	}()

	queueSpansEnded := func() uint64 {
		for _, st := range obs.Snapshot().Stages {
			if st.Name == SpanQueue {
				return st.Count
			}
		}
		return 0
	}
	queued, ended := obsQueued.Load(), queueSpansEnded()
	root := obs.StartSpan("req", "")
	defer root.End()
	ctx, cancel := context.WithCancel(obs.ContextWithSpan(context.Background(), root))
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() { done <- g.Do(ctx, func() error { ran.Store(true); return nil }) }()
	waitFull(t, g)
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a queued Do whose context was cancelled did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued Do = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("a cancelled queued Do ran its function")
	}
	if n := len(g.tokens); n != 1 {
		t.Errorf("%d tokens held after the cancelled Do returned, want the slot holder's 1", n)
	}
	if n := obsQueued.Load(); n != queued {
		t.Errorf("service.queued = %d after the cancelled Do returned, want %d", n, queued)
	}
	if kids := root.Snapshot().Children; len(kids) != 1 || kids[0].Name != SpanQueue {
		t.Errorf("request span children %+v, want one %s span", kids, SpanQueue)
	}
	if n := queueSpansEnded() - ended; n != 1 {
		t.Errorf("%d %s spans ended by the cancelled Do, want 1", n, SpanQueue)
	}
	if code := status(err); code != statusClientClosed {
		t.Errorf("status(%v) = %d, want %d", err, code, statusClientClosed)
	}
}

// TestGateCancelledBeforeAdmission checks that a request whose context
// has already ended never runs, even when an execution slot is free: the
// slot and ctx.Done() are then both ready, and the gate must not let the
// choice between them decide. Every call returns the context's error,
// answered 499, and leaves the slot, the token and service.queued as it
// found them.
func TestGateCancelledBeforeAdmission(t *testing.T) {
	g := NewGate(1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queued := obsQueued.Load()
	ran, wrong := 0, 0
	for i := 0; i < 1000; i++ {
		err := g.Do(ctx, func() error { ran++; return nil })
		if !errors.Is(err, context.Canceled) || status(err) != statusClientClosed {
			wrong++
		}
	}
	if ran != 0 || wrong != 0 {
		t.Errorf("of 1000 Do calls whose context had already ended, %d ran their function and %d did not answer context.Canceled (499)", ran, wrong)
	}
	if len(g.slots) != 0 || len(g.tokens) != 0 {
		t.Errorf("%d slots and %d tokens held after every Do returned, want 0", len(g.slots), len(g.tokens))
	}
	if n := obsQueued.Load(); n != queued {
		t.Errorf("service.queued = %d, want %d", n, queued)
	}
}

// TestGatePropagatesErrors checks the gate returns fn's own error
// unchanged for admitted work.
func TestGatePropagatesErrors(t *testing.T) {
	g := NewGate(1, 0)
	want := fmt.Errorf("compute exploded")
	if err := g.Do(context.Background(), func() error { return want }); err != want {
		t.Fatalf("Do = %v, want %v", err, want)
	}
}

// TestConfigDefaults pins the derived worker/queue defaults.
func TestConfigDefaults(t *testing.T) {
	cases := []struct {
		cfg                  Config
		wantMinW, wantQueues int
	}{
		{Config{Workers: 3}, 3, 12}, // queue defaults to 4×workers
		{Config{Workers: 2, Queue: 5}, 2, 5},
		{Config{Workers: 1, Queue: -1}, 1, 0}, // negative queue means none
	}
	for _, tc := range cases {
		if got := tc.cfg.workers(); got != tc.wantMinW {
			t.Errorf("%+v workers() = %d, want %d", tc.cfg, got, tc.wantMinW)
		}
		if got := tc.cfg.queue(); got != tc.wantQueues {
			t.Errorf("%+v queue() = %d, want %d", tc.cfg, got, tc.wantQueues)
		}
	}
	if got := (Config{}).workers(); got < 1 {
		t.Errorf("default workers() = %d, want >= 1", got)
	}
}
