package preemptible

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// newBarePool builds a pool with no workers over the order d names, so
// a test drives admission, pops and requeues itself, one at a time.
func newBarePool(d Discipline) *Pool {
	p := &Pool{
		order:   newOrder(d),
		quantum: DefaultQuantum,
		hist:    stats.NewHistogram(),
		running: make(map[*taskState]struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// orderEntry is the model's copy of one live queue entry.
type orderEntry struct {
	st  *taskState
	dl  time.Time
	seq uint64 // admission sequence, counting enqueues and requeues
	pre bool   // requeued after a preemption
}

// wantNext is the index of the entry the model says comes out next:
// under FIFO the first arrival, else the first preempted task; under
// EDF the earliest deadline, deadline-free work last, ties by sequence.
func wantNext(d Discipline, q []orderEntry) int {
	if d == FIFO {
		for _, pre := range []bool{false, true} {
			for i, e := range q {
				if e.pre == pre {
					return i
				}
			}
		}
		return -1
	}
	min := -1
	for i, e := range q {
		if min < 0 || edfBefore(e, q[min]) {
			min = i
		}
	}
	return min
}

func edfBefore(a, b orderEntry) bool {
	switch {
	case a.dl.IsZero() != b.dl.IsZero():
		return b.dl.IsZero()
	case !a.dl.Equal(b.dl):
		return a.dl.Before(b.dl)
	default:
		return a.seq < b.seq
	}
}

// TestOrderProperty drives both dispatch orders through a seeded mix of
// submits, pops, requeues of popped tasks, cancels (queued, preempted,
// settled) and class evictions, against a flat-slice model: every live
// entry comes out exactly once per stay in the queue, in the model's
// order (FIFO: arrivals in order before preempted tasks; EDF: deadline
// order, seq tie-break); a tombstone never comes out; QueueLen and the
// preempted count agree with the model after every step; and every
// submission settles exactly once.
func TestOrderProperty(t *testing.T) {
	base := time.Now()
	noop := func(*Ctx) {}
	for _, tc := range []struct {
		name string
		d    Discipline
	}{{"FIFO", FIFO}, {"EDF", EDF}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42, 1337, 99991} {
				rng := rand.New(rand.NewSource(seed))
				p := newBarePool(tc.d)
				var (
					q         []orderEntry
					seq       uint64
					dead      = make(map[*taskState]bool) // tombstones
					handles   []*TaskHandle
					doneCalls = make(map[*taskState]int)

					submits, cancels, evicted int
				)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
				}
				pop := func(requeue bool) {
					i := wantNext(tc.d, q)
					st, resume, _, ok := p.next()
					switch {
					case !ok || st == nil:
						fail("pop returned nothing with %d live entries", len(q))
					case dead[st]:
						fail("a tombstone came out")
					case st != q[i].st:
						got := -1
						for j := range q {
							if q[j].st == st {
								got = j
							}
						}
						fail("pop broke the order: got model entry %d of %d, want %d", got, len(q), i)
					case resume != q[i].pre:
						fail("pop reported resume=%v for an entry with preempted=%v", resume, q[i].pre)
					}
					q = append(q[:i], q[i+1:]...)
					if requeue {
						// A zero Fn has neither ended nor failed: afterRun
						// takes it for a preemption and requeues it.
						p.afterRun(st)
						seq++
						q = append(q, orderEntry{st: st, dl: st.deadline, seq: seq, pre: true})
					} else {
						p.finish(st, TaskCompleted, time.Microsecond)
					}
				}
				for i := 0; i < 3000; i++ {
					switch r := rng.Intn(20); {
					case r < 8: // submit
						var dl time.Time
						if rng.Intn(4) != 0 { // 1 in 4 deadline-free; 50 values force ties
							dl = base.Add(time.Duration(rng.Intn(50)) * time.Millisecond)
						}
						var h *TaskHandle
						h, _ = p.SubmitWithOptions(noop, SubmitOptions{Class: Class(rng.Intn(NumClasses)), Deadline: dl},
							func(time.Duration) { doneCalls[h.st]++ })
						handles = append(handles, h)
						seq++
						q = append(q, orderEntry{st: h.st, dl: dl, seq: seq})
						submits++
					case r < 11: // cancel any submission, in whatever state it is
						if len(handles) == 0 {
							continue
						}
						h := handles[rng.Intn(len(handles))]
						before := doneCalls[h.st]
						switch h.State() {
						case TaskQueued:
							if !h.Cancel() {
								fail("Cancel of a queued entry returned false")
							}
							if doneCalls[h.st] != before+1 {
								fail("queued eviction fired done %d times", doneCalls[h.st]-before)
							}
							dead[h.st] = true
							for j, e := range q {
								if e.st == h.st {
									q = append(q[:j], q[j+1:]...)
									break
								}
							}
							cancels++
						case TaskPreempted: // only raises the flag: the entry stays live
							h.Cancel()
							if doneCalls[h.st] != before {
								fail("Cancel of a preempted entry settled it")
							}
						default:
							if h.Cancel() {
								fail("Cancel of a settled task returned true")
							}
							if doneCalls[h.st] != before {
								fail("done re-fired on a settled task")
							}
						}
					case r < 12: // evict a class's never-run entries
						class := Class(rng.Intn(NumClasses))
						want := 0
						live := q[:0]
						for _, e := range q {
							if !e.pre && e.st.class == class {
								dead[e.st] = true
								want++
							} else {
								live = append(live, e)
							}
						}
						q = live
						if n := p.EvictClass(class); n != want {
							fail("EvictClass(%v) evicted %d, want %d", class, n, want)
						}
						evicted += want
					default:
						if len(q) > 0 {
							pop(rng.Intn(3) == 0)
						}
					}
					pre := 0
					for _, e := range q {
						if e.pre {
							pre++
						}
					}
					p.mu.Lock()
					gotPre := p.order.preempted()
					p.mu.Unlock()
					if n := p.QueueLen(); n != len(q) || gotPre != pre {
						fail("QueueLen %d, preempted %d; model has %d live, %d preempted", n, gotPre, len(q), pre)
					}
				}
				for len(q) > 0 {
					pop(false)
				}
				// Closed and empty of live work, next sweeps whatever
				// tombstones are left and reports the pool drained.
				p.mu.Lock()
				p.closed = true
				p.mu.Unlock()
				if st, _, _, ok := p.next(); ok {
					fail("drained order still yielded %p", st)
				}
				left := 0
				p.mu.Lock()
				p.order.each(func(*taskState) { left++ })
				p.mu.Unlock()
				if left != 0 {
					fail("%d entries left after the drain", left)
				}
				st := p.Stats()
				if st.Submitted != uint64(submits) || st.CancelledQueued != uint64(cancels) || st.Shed != uint64(evicted) ||
					st.Completed != uint64(submits-cancels-evicted) {
					fail("stats %+v; want submitted=%d cancelledQueued=%d shed=%d", st, submits, cancels, evicted)
				}
				for _, h := range handles {
					if doneCalls[h.st] != 1 {
						fail("a submission settled %d times", doneCalls[h.st])
					}
				}
			}
		})
	}
}

// TestControllerSeesPreemptedQueueOnly: QThreshold is Algorithm 1's
// preempted-queue trigger, so fresh arrivals waiting for a worker are
// not in the controller's observation — under EDF, whose one heap holds
// both kinds, exactly as under FIFO.
func TestControllerSeesPreemptedQueueOnly(t *testing.T) {
	for _, d := range []Discipline{FIFO, EDF} {
		rt := newRT(t)
		p := NewPool(rt, PoolConfig{Workers: 1, Discipline: d})
		started, release := make(chan struct{}), make(chan struct{})
		p.SubmitWithOptions(func(*Ctx) { close(started); <-release }, SubmitOptions{}, nil)
		<-started
		const n = 5
		for i := 0; i < n; i++ {
			p.SubmitWithOptions(func(*Ctx) {}, SubmitOptions{Deadline: time.Now().Add(time.Hour)}, nil)
		}
		if got := p.QueueLen(); got != n {
			t.Fatalf("discipline %d: QueueLen %d, want %d", d, got, n)
		}
		obs := p.observe(time.Second)
		if obs.QueueLen != 0 || obs.Rate != n+1 {
			t.Errorf("discipline %d: observed queue %d and rate %v/s, want 0 and %d/s", d, obs.QueueLen, obs.Rate, n+1)
		}
		close(release)
		p.Close()
	}
}
