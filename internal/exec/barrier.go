package exec

import (
	"fmt"
	"sync"

	"clfuzz/internal/ast"
)

// barrier implements the OpenCL work-group collective barrier with
// divergence detection: all participating threads must arrive at the same
// syntactic barrier having executed the same number of enclosing loop
// iterations, and no thread may exit the kernel while others wait
// (paper §3.1 "Barrier divergence").
type barrier struct {
	group *groupCtx

	mu           sync.Mutex
	participants int
	arrived      int
	release      chan struct{}
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

func newBarrier(n int, g *groupCtx) *barrier {
	return &barrier{group: g, participants: n}
}

// reset rearms a pooled barrier for a fresh group. The release channel is
// allocated lazily by the first parker, so single-thread groups — the
// common sequential shape — never allocate one at all.
func (b *barrier) reset(n int, g *groupCtx) {
	b.group = g
	b.participants = n
	b.arrived = 0
	b.release = nil
	b.token = barrierToken{}
	b.haveToken = false
	b.fence = 0
}

// await blocks until every live participant arrives. It returns a
// DivergenceError if threads arrive with mismatched tokens, or the
// machine's error if the run is aborted while waiting. self is the
// caller's linearized local id, its identity to the group's lockstep
// scheduler: arriving threads hand the baton on before parking, and a
// released round resumes its threads in work-item order.
func (b *barrier) await(tok barrierToken, fence uint64, self int) error {
	b.mu.Lock()
	if b.arrived == 0 {
		b.token = tok
		b.haveToken = true
		b.fence = fence
	} else if b.group.m.opts.CheckRaces && b.token != tok {
		b.mu.Unlock()
		return &DivergenceError{Msg: "threads arrived at distinct dynamic barriers"}
	}
	b.arrived++
	if b.arrived == b.participants {
		// Last arriver: apply fence effects to the race checker, then
		// release the round.
		b.group.clearRaces(b.fence | fence)
		b.arrived = 0
		b.haveToken = false
		rel := b.release
		b.release = nil
		b.mu.Unlock()
		if ls := b.group.ls; ls != nil {
			// Mark the parked threads runnable, wake them, and restart
			// the round from the lowest-numbered thread (not from this
			// arrival order's tail).
			ls.readyAll()
			if rel != nil {
				close(rel)
			}
			ls.yield(self, b.group.m.dom.abort)
		} else if rel != nil {
			close(rel)
		}
		return nil
	}
	// The release channel is lazy: the first parker of a round allocates
	// it, and a round with no parkers (single participant) never does.
	if b.release == nil {
		b.release = make(chan struct{})
	}
	rel := b.release
	b.mu.Unlock()
	if ls := b.group.ls; ls != nil {
		ls.block(self)
	}
	select {
	case <-rel:
		if ls := b.group.ls; ls != nil {
			ls.waitTurn(self, b.group.m.dom.abort)
		}
		return nil
	case <-b.group.m.dom.abort:
		if err := b.group.m.dom.err; err != nil {
			return err
		}
		return &CrashError{Msg: "aborted while waiting at barrier"}
	}
}

// quit removes a normally finishing thread from the barrier. If every
// remaining participant is blocked at a barrier that this thread will never
// reach, that is barrier divergence.
func (b *barrier) quit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.participants--
	if b.participants > 0 && b.arrived == b.participants {
		if b.group.m.opts.CheckRaces {
			return &DivergenceError{Msg: fmt.Sprintf("%d threads waiting at a barrier another thread exited around", b.arrived)}
		}
		// Without checking enabled, release the stragglers so the
		// machine does not deadlock (real GPUs exhibit arbitrary
		// behaviour here; we choose release-and-continue).
		b.group.clearRaces(b.fence)
		b.arrived = 0
		b.haveToken = false
		rel := b.release
		b.release = nil
		if ls := b.group.ls; ls != nil {
			// The released stragglers become runnable; the baton reaches
			// them when the quitting thread finishes.
			ls.readyAll()
		}
		if rel != nil {
			close(rel)
		}
	}
	return nil
}

// quitErr removes an erroring thread; stragglers are woken via the group's
// failure-domain abort channel, so only the participant count needs
// adjusting.
func (b *barrier) quitErr() {
	b.mu.Lock()
	b.participants--
	b.mu.Unlock()
}
