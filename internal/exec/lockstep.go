package exec

import "sync"

// lockstep is the deterministic scheduler for work-groups that run one
// goroutine per thread (barrier-using kernels, and any launch with race
// checking on). Exactly one thread of the group executes at a time — the
// baton holder — and at every scheduling point (a thread blocking at a
// barrier, finishing, or a barrier round releasing) the baton passes to
// the lowest-numbered runnable thread. The result is one fixed, legal
// OpenCL interleaving: threads run in work-item order between barriers,
// so atomic operations, shared-memory effects, race reports and
// divergence verdicts are identical on every run of the same launch —
// the property the campaign result cache, the shard/merge pipeline and
// the differential oracle all rest on. Work-groups themselves run one
// after another, in group order, each with a freshly reset lockstep.
type lockstep struct {
	mu    sync.Mutex
	state []lsState
	// turn holds one buffered token per thread; a send grants the baton.
	// Buffering decouples granting from the grantee's blocking state (a
	// thread released from a barrier consumes its token after it wakes).
	turn []chan struct{}
}

type lsState uint8

const (
	lsReady   lsState = iota // runnable, waiting for the baton
	lsBlocked                // parked at a barrier
	lsDone                   // finished (normally or by error)
)

func newLockstep(n int) *lockstep {
	ls := &lockstep{state: make([]lsState, n), turn: make([]chan struct{}, n)}
	for i := range ls.turn {
		ls.turn[i] = make(chan struct{}, 1)
	}
	return ls
}

// reset rearms a pooled scheduler for a fresh n-thread group: every
// thread starts ready, and any token left buffered by an aborted round
// is drained so a stale grant cannot leak into the new group.
func (ls *lockstep) reset(n int) {
	if cap(ls.state) < n {
		ls.state = make([]lsState, n)
		old := ls.turn
		ls.turn = make([]chan struct{}, n)
		copy(ls.turn, old)
	}
	ls.state = ls.state[:n]
	clear(ls.state)
	ls.turn = ls.turn[:n]
	for i, ch := range ls.turn {
		if ch == nil {
			ls.turn[i] = make(chan struct{}, 1)
			continue
		}
		select {
		case <-ch:
		default:
		}
	}
}

// grantLocked passes the baton to the lowest-numbered ready thread.
// Callers hold mu. With no ready thread it does nothing: either every
// thread is done (group over) or all non-done threads are parked at a
// barrier, whose release will re-grant. The send is non-blocking:
// before an abort exactly one token is ever outstanding, so the
// buffered channel always has room; after an abort (when threads run
// free of the baton and may retire concurrently) a grant can target a
// thread that already holds an unconsumed token, and dropping the
// duplicate — rather than blocking while holding mu — keeps the
// scheduler deadlock-free.
func (ls *lockstep) grantLocked() {
	for i, s := range ls.state {
		if s == lsReady {
			select {
			case ls.turn[i] <- struct{}{}:
			default:
			}
			return
		}
	}
}

// start hands the baton to thread 0 (every thread begins ready).
func (ls *lockstep) start() {
	ls.mu.Lock()
	ls.grantLocked()
	ls.mu.Unlock()
}

// waitTurn parks until the baton arrives (or the failure domain aborts —
// after an abort scheduling order no longer matters, the group's verdict
// is already fixed).
func (ls *lockstep) waitTurn(i int, abort <-chan struct{}) {
	select {
	case <-ls.turn[i]:
	case <-abort:
	}
}

// block parks thread i at a barrier and passes the baton on. Called by
// the baton holder before it blocks.
func (ls *lockstep) block(i int) {
	ls.mu.Lock()
	ls.state[i] = lsBlocked
	ls.grantLocked()
	ls.mu.Unlock()
}

// readyAll marks every barrier-parked thread runnable again without
// granting; the caller — still holding the baton — grants when it next
// yields. Used by the barrier release paths.
func (ls *lockstep) readyAll() {
	ls.mu.Lock()
	for i, s := range ls.state {
		if s == lsBlocked {
			ls.state[i] = lsReady
		}
	}
	ls.mu.Unlock()
}

// yield re-queues the running thread i and passes the baton to the
// lowest-numbered ready thread (possibly i itself). Called by the last
// arriver of a barrier round after releasing the round, so the new round
// starts from thread 0, not from the arrival order's tail.
func (ls *lockstep) yield(i int, abort <-chan struct{}) {
	ls.mu.Lock()
	ls.state[i] = lsReady
	ls.grantLocked()
	ls.mu.Unlock()
	ls.waitTurn(i, abort)
}

// finish retires thread i and passes the baton on.
func (ls *lockstep) finish(i int) {
	ls.mu.Lock()
	ls.state[i] = lsDone
	ls.grantLocked()
	ls.mu.Unlock()
}
