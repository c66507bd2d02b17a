package exec

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
//
// The baton is total: no two goroutines of a launch ever execute at
// once, failures included. Only the holder touches the scheduler, the
// barrier, the race checker's records or the launch's memory, and each
// handover is a channel send, which orders everything the old holder did
// before everything the new one does — so none of that state needs a
// lock or an atomic. A failing thread records the launch verdict, readies
// its parked siblings and finishes; every thread that receives the baton
// afterwards sees the verdict and retires without running kernel code.
type lockstep struct {
	state []lsState
	// turn holds one buffered token per thread; a send grants the baton.
	// Buffering lets the holder grant and then park or exit without
	// waiting for the grantee to wake.
	turn []chan struct{}
}

type lsState uint8

const (
	lsReady   lsState = iota // runnable, waiting for the baton
	lsBlocked                // parked at a barrier
	lsDone                   // finished (normally, by error, or retired)
)

// reset rearms a pooled scheduler for a fresh n-thread group: every
// thread starts ready. The channels carry over empty, because a group
// ends only when every thread has finished and the last finish grants
// nobody.
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
		}
	}
}

// grant passes the baton to the lowest-numbered ready thread. Exactly one
// token is ever outstanding, so the send never blocks. With no ready
// thread every thread is done: while any thread is parked at a barrier,
// some participant has not arrived yet and is ready.
func (ls *lockstep) grant() {
	for i, s := range ls.state {
		if s == lsReady {
			ls.turn[i] <- struct{}{}
			return
		}
	}
}

// waitTurn parks thread i until the baton arrives.
func (ls *lockstep) waitTurn(i int) { <-ls.turn[i] }

// block parks thread i at a barrier, passes the baton on, and waits until
// it is ready again and the baton comes back: the baton is the release.
func (ls *lockstep) block(i int) {
	ls.state[i] = lsBlocked
	ls.grant()
	ls.waitTurn(i)
}

// readyAll marks every barrier-parked thread runnable again without
// granting; the caller — still holding the baton — grants when it next
// yields or finishes. Used by the barrier release paths and by a failing
// thread, whose parked siblings must wake to retire.
func (ls *lockstep) readyAll() {
	for i, s := range ls.state {
		if s == lsBlocked {
			ls.state[i] = lsReady
		}
	}
}

// yield re-queues the running thread i and passes the baton to the
// lowest-numbered ready thread (possibly i itself). Called by the last
// arriver of a barrier round after releasing the round, so the new round
// starts from thread 0, not from the arrival order's tail.
func (ls *lockstep) yield(i int) {
	ls.state[i] = lsReady
	ls.grant()
	ls.waitTurn(i)
}

// finish retires thread i and passes the baton on.
func (ls *lockstep) finish(i int) {
	ls.state[i] = lsDone
	ls.grant()
}
