package minivm

import (
	"errors"
	"fmt"
	"time"

	"phasemark/internal/obs"
)

// This file is the record/replay split: one execution on two goroutines.
// A producer goroutine interprets with a recorder as the machine's
// observer, packing every event the caller's observer consumes into a
// tagged word in a bounded ring of buffers; the calling goroutine replays
// the words into that observer, making the calls the serial machine
// makes, in the same order. The ring gives backpressure: the interpreter
// runs ahead while the observer consumes, and replaying the total event
// order reproduces whatever the observer computes by construction.

const (
	// splitBufWords is the capacity of one event buffer (~256KB). Big
	// enough that handoff synchronization is negligible against the
	// events it batches, small enough that the ring keeps working memory
	// bounded.
	splitBufWords = 1 << 15
	// splitRingBufs is the ring depth: one buffer being replayed, one
	// being filled, one spare absorbing jitter.
	splitRingBufs = 3
)

// Event words: tag in the low 3 bits, payload shifted above. Block and
// branch events carry the block ID, memory events the byte address
// (always < 2^61: addresses are word-indexed into bounded global
// memory), call events the callee proc ID above the 32-bit site block
// ID, returns the callee proc ID.
const (
	tagBlock = iota
	tagTaken
	tagNotTaken
	tagLoad
	tagStore
	tagCall
	tagRet

	tagBits = 3
	tagMask = 1<<tagBits - 1
)

// Split metrics, updated once per buffer handoff: the buffers shipped,
// and the nanoseconds each side spent blocked on the other. The side
// that waits more is the faster one; the other limits the run.
var (
	obsSplitBuffers      = obs.NewCounter("minivm.split.buffers")
	obsSplitProducerWait = obs.NewCounter("minivm.split.producer_wait_ns")
	obsSplitConsumerWait = obs.NewCounter("minivm.split.consumer_wait_ns")
)

// ErrReplayDrift reports a split whose replay did not deliver every
// block the machine executed.
var ErrReplayDrift = errors.New("minivm: split replay drift")

// recorder is the producer-side observer: it packs every machine event
// into the current buffer and hands full buffers to the replay side,
// blocking on the free ring for backpressure. After a stop it keeps the
// machine runnable but discards events (the interpreter cannot be
// interrupted mid-Run; the doomed remainder executes without growing
// memory).
type recorder struct {
	mask    EventMask
	buf     []uint64
	filled  chan []uint64
	free    chan []uint64
	stop    <-chan struct{}
	stopped bool
}

// ObservedEvents implements EventMasker.
func (r *recorder) ObservedEvents() EventMask { return r.mask }

func (r *recorder) emit(w uint64) {
	if len(r.buf) == cap(r.buf) {
		r.handoff()
	}
	r.buf = append(r.buf, w)
}

// ship hands the current buffer to the replay side; it reports false
// once the split has stopped.
func (r *recorder) ship() bool {
	if r.stopped {
		return false
	}
	select {
	case r.filled <- r.buf:
		obsSplitBuffers.Inc()
		return true
	case <-r.stop:
		r.stopped = true
		return false
	}
}

// handoff ships the full buffer and acquires an empty one.
func (r *recorder) handoff() {
	if !r.ship() {
		r.buf = r.buf[:0]
		return
	}
	select {
	case nb := <-r.free:
		r.buf = nb[:0]
		return
	default:
	}
	start := time.Now()
	select {
	case nb := <-r.free:
		r.buf = nb[:0]
	case <-r.stop:
		// The shipped buffer is gone and no free one is coming back;
		// record into a throwaway so the machine can finish.
		r.stopped = true
		r.buf = make([]uint64, 0, splitBufWords)
	}
	obsSplitProducerWait.Add(uint64(time.Since(start)))
}

// next returns the next filled buffer, false once the producer is done.
func (r *recorder) next() ([]uint64, bool) {
	select {
	case buf, ok := <-r.filled:
		return buf, ok
	default:
	}
	start := time.Now()
	buf, ok := <-r.filled
	obsSplitConsumerWait.Add(uint64(time.Since(start)))
	return buf, ok
}

func (r *recorder) OnBlock(b *Block) {
	r.emit(uint64(b.ID)<<tagBits | tagBlock)
}

func (r *recorder) OnBranch(b *Block, taken bool) {
	t := uint64(tagNotTaken)
	if taken {
		t = tagTaken
	}
	r.emit(uint64(b.ID)<<tagBits | t)
}

func (r *recorder) OnMem(addr uint64, write bool) {
	t := uint64(tagLoad)
	if write {
		t = tagStore
	}
	r.emit(addr<<tagBits | t)
}

func (r *recorder) OnCall(site *Block, callee *Proc) {
	r.emit((uint64(callee.ID)<<32|uint64(uint32(site.ID)))<<tagBits | tagCall)
}

func (r *recorder) OnReturn(callee *Proc) {
	r.emit(uint64(callee.ID)<<tagBits | tagRet)
}

// blockTable builds a dense block-ID -> *Block index (Program.BlockByID
// is a linear scan; replay needs O(1)).
func blockTable(p *Program) []*Block {
	t := make([]*Block, p.NumBlocks)
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			if b.ID >= 0 && b.ID < len(t) {
				t[b.ID] = b
			}
		}
	}
	return t
}

// RunWorkers executes prog on args with o observing, on at most workers
// goroutines: below two on the serial machine, NewMachine(prog, o), and
// at two or more on RunSplit, which replays the serial machine's events
// to o in order, so o ends in the same state either way. stop is
// RunSplit's; the serial machine runs to the end. It returns the
// machine's instruction count and the run's error.
func RunWorkers(prog *Program, o Observer, workers int, stop func() bool, args ...int64) (uint64, error) {
	if workers >= 2 {
		return RunSplit(prog, o, stop, args...)
	}
	m := NewMachine(prog, o)
	_, err := m.Run(args...)
	return m.Instructions(), err
}

// RunSplit executes prog on args as NewMachine(prog, o).Run(args...)
// does, on two goroutines: a producer goroutine interprets and records
// exactly the events MaskOf(o) names, and the calling goroutine replays
// them into o in recorded order. o therefore receives the serial
// machine's calls in the serial order, a failed run's events up to its
// error included, and ends in the same state.
//
// stop, if non-nil, is called after each replayed buffer; once it reports
// true, replay ends there and the rest of the execution runs unobserved.
// RunSplit returns the machine's instruction count and the run's error; a
// replay that ran to the end but delivered a block total other than the
// machine's returns an error wrapping ErrReplayDrift (checked when o
// consumes blocks).
//
// RunSplit does not return while the producer is running, on any path: a
// panic in o propagates to the caller after the producer has been stopped
// and joined. The interpreter cannot be interrupted, so an early exit
// waits for the execution to end.
func RunSplit(prog *Program, o Observer, stop func() bool, args ...int64) (uint64, error) {
	rec := &recorder{mask: MaskOf(o)}
	m := NewMachine(prog, rec)
	if m.err != nil {
		return 0, m.err // an invalid program never executes (nor sizes the ring)
	}
	done := make(chan struct{})
	rec.buf = make([]uint64, 0, splitBufWords)
	rec.filled = make(chan []uint64, splitRingBufs)
	rec.free = make(chan []uint64, splitRingBufs)
	rec.stop = done
	for i := 1; i < splitRingBufs; i++ {
		rec.free <- make([]uint64, 0, splitBufWords)
	}
	var runErr error
	go func() {
		_, runErr = m.Run(args...)
		if len(rec.buf) > 0 {
			rec.ship()
		}
		close(rec.filled) // happens-after runErr and the machine's counts
	}()
	// join stops the producer's deliveries and waits for it to finish,
	// draining what is in flight without replaying it. It runs on every
	// return path, a panic in o included.
	joined := false
	join := func() {
		if !joined {
			joined = true
			close(done)
			for range rec.filled {
			}
		}
	}
	defer join()

	blocks := blockTable(prog)
	procs := prog.Procs
	var replayed uint64
	stopped := false
	for !stopped {
		buf, ok := rec.next()
		if !ok {
			break
		}
		for _, w := range buf {
			payload := w >> tagBits
			switch w & tagMask {
			case tagBlock:
				b := blocks[payload]
				o.OnBlock(b)
				replayed += uint64(b.Weight())
			case tagTaken:
				o.OnBranch(blocks[payload], true)
			case tagNotTaken:
				o.OnBranch(blocks[payload], false)
			case tagLoad:
				o.OnMem(payload, false)
			case tagStore:
				o.OnMem(payload, true)
			case tagCall:
				o.OnCall(blocks[uint32(payload)], procs[payload>>32])
			case tagRet:
				o.OnReturn(procs[payload])
			}
		}
		rec.free <- buf[:0]
		stopped = stop != nil && stop()
	}
	join()

	instrs := m.Instructions()
	if runErr != nil || stopped || rec.mask&EvBlock == 0 || replayed == instrs {
		return instrs, runErr
	}
	return instrs, fmt.Errorf("%w: replayed %d instructions, machine ran %d", ErrReplayDrift, replayed, instrs)
}
