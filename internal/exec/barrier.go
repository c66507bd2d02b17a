package exec

import (
	"fmt"

	"clfuzz/internal/ast"
)

// barrier implements the OpenCL work-group collective barrier with
// divergence detection: all participating threads must arrive at the same
// syntactic barrier having executed the same number of enclosing loop
// iterations, and no thread may exit the kernel while others wait
// (paper §3.1 "Barrier divergence"). Only one thread of a launch runs at
// a time (see lockstep.go), so it needs no lock.
type barrier struct {
	group *groupCtx

	participants int
	arrived      int
	token        barrierToken
	haveToken    bool
	fence        uint64
}

// barrierToken identifies a dynamic barrier instance: the syntactic call
// site plus a digest of the enclosing loop iteration counters.
type barrierToken struct {
	node  ast.Node
	iters uint64
}

// reset rearms a pooled barrier for a fresh group.
func (b *barrier) reset(n int, g *groupCtx) {
	b.group = g
	b.participants = n
	b.arrived = 0
	b.token = barrierToken{}
	b.haveToken = false
	b.fence = 0
}

// await blocks until every live participant arrives. It returns a
// DivergenceError if threads arrive with mismatched tokens, or the launch
// verdict if another thread failed while this one waited. self is the
// caller's linearized local id, its identity to the group's lockstep
// scheduler: arriving threads hand the baton on before parking, and a
// released round resumes its threads in work-item order.
func (b *barrier) await(tok barrierToken, fence uint64, self int) error {
	if b.arrived == 0 {
		b.token = tok
		b.haveToken = true
		b.fence = fence
	} else if b.group.m.opts.CheckRaces && b.token != tok {
		return &DivergenceError{Msg: "threads arrived at distinct dynamic barriers"}
	}
	b.arrived++
	if b.arrived < b.participants {
		// Only multi-thread groups, which always run in lockstep, can
		// get here.
		b.group.ls.block(self)
		return b.group.m.err
	}
	// Last arriver: apply fence effects to the race checker, then
	// release the round.
	b.group.clearRaces(b.fence | fence)
	b.arrived = 0
	b.haveToken = false
	if ls := b.group.ls; ls != nil {
		// Mark the parked threads runnable and restart the round from the
		// lowest-numbered thread (not from this arrival order's tail).
		ls.readyAll()
		ls.yield(self)
	}
	return b.group.m.err
}

// quit removes a normally finishing thread from the barrier. If every
// remaining participant is blocked at a barrier that this thread will never
// reach, that is barrier divergence.
func (b *barrier) quit() error {
	b.participants--
	if b.participants > 0 && b.arrived == b.participants {
		if b.group.m.opts.CheckRaces {
			return &DivergenceError{Msg: fmt.Sprintf("%d threads waiting at a barrier another thread exited around", b.arrived)}
		}
		// Without checking enabled, release the stragglers so the
		// machine does not deadlock (real GPUs exhibit arbitrary
		// behaviour here; we choose release-and-continue). They become
		// runnable; the baton reaches them when the quitting thread
		// finishes.
		b.group.clearRaces(b.fence)
		b.arrived = 0
		b.haveToken = false
		b.group.ls.readyAll()
	}
	return nil
}
