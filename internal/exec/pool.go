package exec

// Execution-state lifecycle. A kernel launch needs a sizeable working set
// — a Machine shell with its name maps, one thread struct per concurrent
// work-item, private-cell arena chunks, VM register stacks, barrier and
// lockstep bookkeeping — and a campaign performs millions of launches
// whose working sets are all the same shape. This file makes the steady
// state allocation-free: every launch acquires a launchState from a
// LaunchPool, resets it with an explicit zeroing discipline, runs, and
// returns it. The contract mirrors the arena contract the evaluator
// already relied on:
//
//   - Everything a launch may read before writing is zeroed at acquire
//     time (arena used regions, maps, flags, counters).
//   - Everything written before read under an existing engine contract
//     (VM registers, scratch, return values) may stay stale.
//   - A launch that panics on the calling goroutine drops its state on
//     the floor instead of returning it — a half-unwound launchState is
//     never reused.
//
// SetDebugPoisonPool arms a checked mode that scribbles sentinel values
// over every retained structure when a state is returned, so the
// determinism suites catch a stale read by construction rather than by
// luck.

import (
	"sync"
	"sync/atomic"

	"clfuzz/internal/ast"
)

// arena is a chunked bump allocator whose chunks are retained across
// resets. Spans are handed out disjoint and never grown, so no two
// grants alias; reset re-zeroes exactly the region previous grants could
// have dirtied, so every new grant starts zero-initialized — the same
// guarantee freshly made chunks gave before arenas were pooled.
type arena[T any] struct {
	chunks [][]T
	ci     int // chunk currently being carved
	used   int // elements consumed from chunks[ci]
}

// grab hands out a zeroed span of length n.
func (a *arena[T]) grab(n int) []T {
	for {
		if a.ci < len(a.chunks) {
			ch := a.chunks[a.ci]
			if len(ch)-a.used >= n {
				s := ch[a.used : a.used+n : a.used+n]
				a.used += n
				return s
			}
			// The tail of this chunk is too short; it was never handed
			// out, so it is still zero and reset need not revisit it.
			a.ci++
			a.used = 0
			continue
		}
		c := 128
		if c < n {
			c = n
		}
		a.chunks = append(a.chunks, make([]T, c))
	}
}

// one hands out a single zeroed element.
func (a *arena[T]) one() *T {
	if a.ci < len(a.chunks) {
		if ch := a.chunks[a.ci]; a.used < len(ch) {
			p := &ch[a.used]
			a.used++
			return p
		}
	}
	return &a.grab(1)[0]
}

// reset re-zeroes every element handed out since the last reset and
// rewinds the arena. Chunks before the current one were filled to some
// prefix and possibly skipped with a short zero tail, so the whole chunk
// is cleared; the current chunk is cleared up to its watermark.
func (a *arena[T]) reset() {
	for i := 0; i < a.ci && i < len(a.chunks); i++ {
		clear(a.chunks[i])
	}
	if a.ci < len(a.chunks) {
		clear(a.chunks[a.ci][:a.used])
	}
	a.ci, a.used = 0, 0
}

// poolKey selects the launch shape a pooled state was last used for, so
// sequential and lockstep launches each reuse states grown to their own
// working-set shape.
type poolKey uint8

const (
	poolSerial   poolKey = iota // sequential groups on the calling goroutine
	poolLockstep                // goroutine-per-thread groups (barriers, races)
	poolKeys
)

// LaunchPool recycles launch working sets across kernel executions. A nil
// Options.Pool uses a process-wide shared pool, so steady-state campaigns
// are allocation-free by default; embedders that want memory isolation
// (one pool per campaign engine) pass their own.
//
// States are acquired at the top of Run and returned when it exits
// normally; a launch that panics on the calling goroutine drops its state
// instead. All reset work happens at acquire time, against a state whose
// previous launch has fully quiesced.
type LaunchPool struct {
	mu     sync.Mutex
	free   [poolKeys][]*launchState
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewLaunchPool returns an empty pool.
func NewLaunchPool() *LaunchPool { return &LaunchPool{} }

// sharedPool is the process-wide default used when Options.Pool is nil.
var sharedPool = NewLaunchPool()

// DefaultPool returns the process-wide pool that launches with a nil
// Options.Pool draw from, for telemetry.
func DefaultPool() *LaunchPool { return sharedPool }

// Counters reports how many acquisitions were served from the freelist
// (hits) versus by constructing a new state (misses).
func (p *LaunchPool) Counters() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// debugPoisonPool arms sentinel scribbling on every pool return; see
// SetDebugPoisonPool.
var debugPoisonPool atomic.Bool

// SetDebugPoisonPool toggles pool poisoning: when armed, every structure
// a launchState retains — arena chunks, thread flags, VM register
// stacks, barrier tokens, scratch values — is overwritten with sentinel
// garbage when the state is returned to its pool. The acquire-time reset
// discipline must then neutralize every sentinel a launch could observe,
// or outputs diverge and the determinism suites fail. Like
// SetDebugImmutable it is a checked mode for tests, far too slow for
// campaigns.
func SetDebugPoisonPool(on bool) { debugPoisonPool.Store(on) }

func (p *LaunchPool) get(k poolKey) *launchState {
	p.mu.Lock()
	if fl := p.free[k]; len(fl) > 0 {
		st := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.free[k] = fl[:len(fl)-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return st
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return &launchState{key: k}
}

func (p *LaunchPool) put(st *launchState) {
	st.scrub()
	if debugPoisonPool.Load() {
		st.poison()
	}
	p.mu.Lock()
	p.free[st.key] = append(p.free[st.key], st)
	p.mu.Unlock()
}

// scrub drops the launch-identity references while the state idles in
// the pool, so a parked state does not pin the previous launch's
// program, arguments or buffers against the garbage collector. (Arena
// interiors may still reference the old launch's cells until the next
// acquire re-zeroes them; the pool is bounded by worker count, so that
// retention is O(working set).)
func (st *launchState) scrub() {
	m := &st.m
	m.prog, m.kernel, m.code = nil, nil, nil
	m.args = nil
	m.opts = Options{}
	clear(m.globals)
	clear(m.funcs)
	clear(m.globalCells)
	m.globalCells = m.globalCells[:0]
	m.interGroup = nil
}

// launchState owns everything exec.Run used to make fresh per launch.
// The embedded Machine is the launch's identity; group is the working
// set every work-group of the launch runs on in turn.
type launchState struct {
	key poolKey
	m   Machine
	// initThread evaluates program-scope constant initializers host-side.
	initThread thread
	// serialVM is the register state shared by every thread of a
	// sequential launch.
	serialVM vmState
	group    groupState
}

// reset rearms the state for a new launch: maps cleared, arenas rewound
// and re-zeroed, counters dropped. Fields the next launch assigns before
// reading (prog, kernel, nd, args, opts, mode flags) are left for Run.
func (st *launchState) reset() {
	m := &st.m
	if m.globals == nil {
		m.globals = map[string]*Cell{}
		m.funcs = map[string]*ast.FuncDecl{}
	} else {
		clear(m.globals)
		clear(m.funcs)
	}
	m.code = nil
	m.globalCells = m.globalCells[:0]
	m.interGroup = nil
	m.err = nil
	m.stats = Stats{}
	m.state = st
}

// groupState is the working set of one work-group: the sequential path
// runs every thread of a group on seq; the lockstep path runs one
// goroutine per thread over threads.
type groupState struct {
	g         groupCtx
	bar       barrier
	ls        lockstep
	seq       thread
	threads   []*thread
	barCounts []int
}

// resetGroup rearms the groupCtx for a fresh group. Barrier and lockstep
// state is rearmed separately, by the paths that use them.
func (gs *groupState) resetGroup(m *Machine, gid [3]int) *groupCtx {
	g := &gs.g
	g.m = m
	g.id = gid
	g.bar = nil
	g.ls = nil
	if g.local == nil {
		g.local = map[*ast.VarDecl]*Cell{}
	} else {
		clear(g.local)
	}
	if m.opts.CheckRaces {
		if g.races == nil {
			g.races = map[memKey]*accessRec{}
		} else {
			clear(g.races)
		}
	} else {
		g.races = nil
	}
	return g
}

// thread returns the i'th pooled thread of the group executor.
func (gs *groupState) thread(i int) *thread {
	for len(gs.threads) <= i {
		gs.threads = append(gs.threads, &thread{})
	}
	return gs.threads[i]
}

// resetState rearms a pooled thread for one work-item: scope chain
// dropped, arenas re-zeroed, control flags dropped. scratch, retVal and
// the VM register stacks stay stale by contract — every engine fully
// assigns them before reading.
func (t *thread) resetState(m *Machine, g *groupCtx, gid, lid [3]int, fuel int64) {
	t.env = nil
	t.m = m
	t.group = g
	t.gid = gid
	t.lid = lid
	t.fuel = fuel
	t.depth = 0
	t.barrierSeen = false
	t.barrierCount = 0
	t.iterStack = t.iterStack[:0]
	t.vmInstrs = 0
	t.cells.reset()
	t.kids.reset()
	t.words.reset()
	t.bytes.reset()
}

// ---- poisoning ----

const poisonWord = 0x5EEDDEADBEEF5EED

// poison scribbles sentinel garbage over every structure the state
// retains. Only regions a launch could legitimately have dirtied are
// touched — never-granted arena tails stay zero, because production
// resets rely on that invariant and poisoning must not be stricter than
// reality.
func (st *launchState) poison() {
	st.initThread.poison()
	poisonVM(&st.serialVM)
	for i := range st.m.globalCells {
		st.m.globalCells[i] = nil
	}
	gs := &st.group
	gs.seq.poison()
	for _, th := range gs.threads {
		th.poison()
	}
	gs.bar.token = barrierToken{iters: poisonWord}
	gs.bar.fence = poisonWord
	gs.bar.haveToken = true
	for i := range gs.barCounts {
		gs.barCounts[i] = -1
	}
}

func (t *thread) poison() {
	poisonArena(&t.cells, Cell{Val: poisonWord})
	poisonArena(&t.kids, nil)
	poisonArena(&t.words, poisonWord)
	poisonArena(&t.bytes, 0xA5)
	t.fuel = -poisonWord
	t.depth = 1 << 20
	t.barrierSeen = true
	t.barrierCount = 1 << 20
	t.vmInstrs = -1
	t.iterStack = append(t.iterStack[:0], poisonWord)[:0]
	t.scratch = Value{Scalar: poisonWord}
	t.retVal = Value{Scalar: poisonWord}
	if t.vm != nil {
		poisonVM(t.vm)
	}
}

// poisonArena overwrites the granted region of an arena with a sentinel
// — exactly the region reset re-zeroes.
func poisonArena[T any](a *arena[T], sentinel T) {
	fill := func(s []T) {
		for i := range s {
			s[i] = sentinel
		}
	}
	for i := 0; i < a.ci && i < len(a.chunks); i++ {
		fill(a.chunks[i])
	}
	if a.ci < len(a.chunks) {
		fill(a.chunks[a.ci][:a.used])
	}
}

// poisonVM scribbles the stale-by-contract VM stacks: registers, lvals
// and the truncated portions of the frame stacks. Every engine writes
// these before reading them; poisoning proves it.
func poisonVM(vm *vmState) {
	for i := range vm.regs {
		vm.regs[i] = Value{Scalar: poisonWord}
	}
	for i := range vm.lvs {
		vm.lvs[i] = lval{wIdx: -424242, vecIdx: -424242}
	}
	for i := range vm.slotStack {
		vm.slotStack[i] = nil
	}
	vm.slotStack = vm.slotStack[:0]
	vm.frames = vm.frames[:0]
	vm.pending = vm.pending[:0]
}
