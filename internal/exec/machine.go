package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
)

// NDRange describes the kernel launch geometry: global dimensions and
// work-group dimensions (paper §3.1). All kernels are treated as 3D; 1D and
// 2D launches set the extra dimensions to 1.
type NDRange struct {
	Global [3]int
	Local  [3]int
}

// Validate checks the OpenCL constraints: positive sizes, the work-group
// size dividing the global size component-wise, and the work-group linear
// size not exceeding 256 (the maximum supported by every configuration the
// paper tested, §4.1).
func (n NDRange) Validate() error {
	for i := 0; i < 3; i++ {
		if n.Global[i] <= 0 || n.Local[i] <= 0 {
			return fmt.Errorf("exec: non-positive NDRange dimension %d", i)
		}
		if n.Global[i]%n.Local[i] != 0 {
			return fmt.Errorf("exec: work-group size %d does not divide global size %d in dimension %d",
				n.Local[i], n.Global[i], i)
		}
	}
	if n.GroupLinear() > 256 {
		return fmt.Errorf("exec: work-group linear size %d exceeds 256", n.GroupLinear())
	}
	return nil
}

// ndForm is the launch geometry's text form, GXxGYxGZ/LXxLYxLZ: the
// command-line tools take it as -nd, and clsmith writes it to .nd files.
const ndForm = "%dx%dx%d/%dx%dx%d"

// ParseNDRange parses and validates a launch geometry written
// GXxGYxGZ/LXxLYxLZ. Text that does not print back as itself is
// refused: Sscanf alone would ignore anything after the sixth number.
func ParseNDRange(s string) (NDRange, error) {
	var nd NDRange
	g, l := &nd.Global, &nd.Local
	if _, err := fmt.Sscanf(s, ndForm, &g[0], &g[1], &g[2], &l[0], &l[1], &l[2]); err != nil ||
		FormatNDRange(nd) != s {
		return NDRange{}, fmt.Errorf("exec: NDRange %q is not GXxGYxGZ/LXxLYxLZ", s)
	}
	return nd, nd.Validate()
}

// FormatNDRange writes n in the form ParseNDRange reads.
func FormatNDRange(n NDRange) string {
	g, l := n.Global, n.Local
	return fmt.Sprintf(ndForm, g[0], g[1], g[2], l[0], l[1], l[2])
}

// GlobalLinear returns the total number of threads.
func (n NDRange) GlobalLinear() int { return n.Global[0] * n.Global[1] * n.Global[2] }

// GroupLinear returns the number of threads per work-group.
func (n NDRange) GroupLinear() int { return n.Local[0] * n.Local[1] * n.Local[2] }

// NumGroups returns the number of work-groups in each dimension.
func (n NDRange) NumGroups() [3]int {
	return [3]int{n.Global[0] / n.Local[0], n.Global[1] / n.Local[1], n.Global[2] / n.Local[2]}
}

// Arg is a kernel argument: a global buffer for pointer parameters or a
// scalar value.
type Arg struct {
	Buf    *Buffer
	Scalar uint64
}

// Args maps kernel parameter names to arguments.
type Args map[string]Arg

// Options configures a kernel execution.
type Options struct {
	// Defects is the configuration level's whole injected defect set;
	// the executor reads only its executor-level bits, and reports which
	// ones a launch tested in Stats.Tested.
	Defects bugs.Set
	// Hash is the kernel source hash, the seed for hash-gated defects.
	Hash uint64
	// Fuel bounds the number of evaluation steps per thread; exceeding it
	// reports TimeoutError (the 60-second per-test timeout of §7.1).
	Fuel int64
	// CheckRaces enables the data race and barrier divergence checker.
	CheckRaces bool
	// NoBarrier is the front end's static guarantee that the program
	// issues no barrier calls (sema.Info.HasBarrier == false). Together
	// with CheckRaces being off it enables the sequential fast path: each
	// work-group's threads run back-to-back on the calling goroutine with
	// no goroutine spawns and no barrier object.
	NoBarrier bool
	// HasFwdDecl is the front-end's report of a forward-declared function
	// with a later definition, a trigger for the Figure 2(c) defects.
	HasFwdDecl bool
	// Code is the lowered register bytecode of the program (the same
	// checked AST, compiled once by internal/code). A launch runs the VM
	// dispatch loop exactly when Code is present and the reference tree
	// walker otherwise; outputs are byte-identical either way.
	Code *code.Program
	// Ctx cancels the launch cooperatively: Run consults it at work-group
	// boundaries (never mid-thread, where fuel already bounds progress)
	// and returns a *CancelError once it fires. nil runs to completion.
	Ctx context.Context
	// Stats, when non-nil, receives execution statistics.
	Stats *Stats
	// Cover, when non-nil, accumulates VM edge coverage and defect-site
	// hit counts for this launch (see cover.go). Coverage is observation
	// only — outputs, fuel and verdicts are byte-identical with Cover set
	// or nil — and only the register VM collects it; the tree walker
	// leaves the map untouched.
	Cover *CoverMap
	// Pool selects the launch-state pool this execution recycles its
	// working set through (see pool.go). nil uses a process-wide shared
	// pool; embedders that want memory isolation pass their own. Pooling
	// is observation-free: outputs are byte-identical with any pool.
	Pool *LaunchPool
}

// Stats reports what a launch observed: its cost, which calibrates the
// fuel model against the paper's timeout rates, and the executor defect
// bits it tested. Run fills it on every return path; read it after Run
// returns.
//
// The two fields bound what the launch's outcome depends on. Another
// launch of the same program on the same arguments takes the same branch
// at every defect test and fuel check — and so reports the same verdict
// and buffers — when its defect set agrees with this one's on every
// Tested bit and its budget either equals this one's or, like this one's,
// exceeds MaxThreadSteps. device.Share serves launches on that rule.
type Stats struct {
	// MaxThreadSteps is the largest evaluation step count over the
	// work-items that ran and the program-scope initializers, each of
	// which runs with the launch's full budget. Work-items retired by an
	// earlier failure run no steps.
	MaxThreadSteps int64
	// Tested is the set of Options.Defects bits the launch read, armed
	// or not. A launch that panicked reports every bit as tested and its
	// whole budget as used: what it would have observed is unknown.
	Tested bugs.Set
}

// panicStats is what a launch cut short by a panic reports: the
// panicking work-item's steps and defect tests were never folded in.
func panicStats(fuel int64) Stats {
	return Stats{MaxThreadSteps: fuel, Tested: ^bugs.Set(0)}
}

// TimeoutError reports fuel exhaustion.
type TimeoutError struct{ Where string }

// Error implements the error interface.
func (e *TimeoutError) Error() string { return "timeout: " + e.Where }

// CrashError reports a runtime crash of the OpenCL application (a
// segmentation fault or driver abort).
type CrashError struct{ Msg string }

// Error implements the error interface.
func (e *CrashError) Error() string { return "crash: " + e.Msg }

// CancelError reports a launch stopped by Options.Ctx before it could
// finish: a caller's deadline, a SIGINT drain, or a worker-pool kill.
// It is a scheduling outcome, not a property of the kernel, so callers
// must never record it as a test observation.
type CancelError struct{ Msg string }

// Error implements the error interface.
func (e *CancelError) Error() string { return "canceled: " + e.Msg }

// RaceError reports a detected data race (undefined behaviour).
type RaceError struct{ Msg string }

// Error implements the error interface.
func (e *RaceError) Error() string { return "data race: " + e.Msg }

// DivergenceError reports barrier divergence (undefined behaviour).
type DivergenceError struct{ Msg string }

// Error implements the error interface.
func (e *DivergenceError) Error() string { return "barrier divergence: " + e.Msg }

// Ptr is a pointer value: the address of a single cell, a position within
// a cell sequence (an aggregate-element buffer or a decayed array), or a
// position within the flat word store of a scalar-element buffer. The
// sequence forms support subscripting. The flat form references the
// Buffer rather than its backing slice so that Ptr — embedded in every
// Cell and Value — stays at its pre-flat-store size.
type Ptr struct {
	Cell  *Cell
	Slice []*Cell
	// Flat views a flat scalar buffer: the pointer addresses element Idx
	// of Flat.Words, an element of scalar type Flat.wordT.
	Flat *Buffer
	Idx  int
}

// IsNull reports whether the pointer is null.
func (p Ptr) IsNull() bool { return p.Cell == nil && p.Slice == nil && p.Flat == nil }

// Target resolves the pointed-to cell, or nil for null, out-of-range, and
// flat-store pointers (whose elements have no cell; see flatWord).
func (p Ptr) Target() *Cell {
	if p.Slice != nil {
		if p.Idx < 0 || p.Idx >= len(p.Slice) {
			return nil
		}
		return p.Slice[p.Idx]
	}
	return p.Cell
}

// flatWord resolves a flat-store pointer to the address of its word, or
// nil for cell pointers and out-of-range positions.
func (p Ptr) flatWord() *uint64 {
	if p.Flat == nil || p.Idx < 0 || p.Idx >= len(p.Flat.Words) {
		return nil
	}
	return &p.Flat.Words[p.Idx]
}

// At returns the pointer displaced by i elements (subscripting).
func (p Ptr) At(i int) Ptr {
	if p.Slice != nil {
		return Ptr{Slice: p.Slice, Idx: p.Idx + i}
	}
	if p.Flat != nil {
		return Ptr{Flat: p.Flat, Idx: p.Idx + i}
	}
	if i == 0 {
		return p
	}
	return Ptr{} // out of range of a single object: null
}

// samePtrTarget reports whether two pointers address the same object, the
// semantics of the == and != operators. Out-of-range pointers of either
// representation resolve to "no object" and compare equal to each other
// and to null, as before the flat store existed.
func samePtrTarget(a, b Ptr) bool {
	if aw, bw := a.flatWord(), b.flatWord(); aw != nil || bw != nil {
		return aw == bw
	}
	return a.Target() == b.Target()
}

// Machine executes one kernel launch.
type Machine struct {
	prog   *ast.Program
	kernel *ast.FuncDecl
	nd     NDRange
	args   Args
	opts   Options

	globals map[string]*Cell // program-scope constant objects
	funcs   map[string]*ast.FuncDecl

	// code is the lowered bytecode when this launch runs on the register
	// VM (nil for the tree walker); globalCells mirrors the globals map
	// in prog.Globals declaration order for pre-resolved global operands.
	code        *code.Program
	globalCells []*Cell

	// sequential marks the sequential fast path: barrier-free kernels (or
	// single-thread work-groups) with race checking off run every thread
	// of every work-group back-to-back on the calling goroutine.
	sequential bool

	// err is the launch verdict, the first error any thread reported.
	// Only the thread holding the baton runs, so it is also what tells a
	// thread that receives the baton after a failure to retire.
	err error

	// stats accumulates what Run reports in Options.Stats.
	stats Stats

	interGroup map[memKey]*accessRec // global-memory access record, per kernel run

	// state is the pooled container this Machine is embedded in; it owns
	// the group executors, pooled threads and arenas (see pool.go).
	state *launchState
}

// debugImmutable arms the read-only-AST assertion in Run: the program is
// fingerprinted before and after the launch and any difference panics.
// See SetDebugImmutable.
var debugImmutable atomic.Bool

// SetDebugImmutable toggles the executor's immutable-program assertion.
// The executor's contract is that Run never writes to the program it is
// handed — compiled kernels are shared, via the device package's back-end
// cache, across configurations and concurrent launches, and the campaign
// run-deduplication layer replays one launch's result for every
// configuration with the same defect model. With the assertion armed,
// every Run snapshots a fingerprint of the program's printed source before
// executing and verifies it afterwards, panicking on any mutation. Neither
// engine keeps state on AST nodes; the one annotation that does not print,
// the Member field index, is written by sema into its own fresh tree
// before any launch sees it. The determinism test suites arm the
// assertion under -race; it is far too slow for campaigns.
func SetDebugImmutable(on bool) { debugImmutable.Store(on) }

// fingerprint hashes the program's printed source.
func fingerprint(prog *ast.Program) uint64 { return bugs.Hash(ast.Print(prog)) }

// faultHook, when armed via SetFaultHook, runs at the start of every
// thread's kernel execution. It exists so the panic-containment tests
// (and fault-injection campaigns) can make the evaluator fail
// deliberately without planting a defect in a real code path.
var faultHook atomic.Pointer[func()]

// SetFaultHook installs fn to be called at the start of every thread's
// kernel execution — the deliberately failing "defect" used by the
// panic-containment regression tests. nil uninstalls it.
func SetFaultHook(fn func()) {
	if fn == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&fn)
}

// ctxErr reports the cooperative-cancellation verdict for the launch
// context, or nil. Checked only at work-group boundaries.
func (m *Machine) ctxErr() error {
	if ctx := m.opts.Ctx; ctx != nil && ctx.Err() != nil {
		return &CancelError{Msg: ctx.Err().Error()}
	}
	return nil
}

// Run executes the kernel of prog over the NDRange with the given
// arguments. It returns nil on success; buffers hold the results.
//
// Run treats prog as immutable: no goroutine of the launch ever writes to
// the AST, so one program may be shared by any number of concurrent
// launches and configurations. SetDebugImmutable arms a checked mode that
// verifies this contract on every launch.
//
// Run never panics on an evaluator failure: panics raised while
// executing the kernel (on this goroutine or any launch goroutine) are
// contained at the launch boundary and returned as a *CrashError — the
// per-case "crash" outcome class — so one broken case cannot abort a
// million-case campaign. The immutable-program assertion is the one
// deliberate exception: it fires outside the containment barrier.
func Run(prog *ast.Program, nd NDRange, args Args, opts Options) (err error) {
	if debugImmutable.Load() {
		before := fingerprint(prog)
		defer func() {
			if after := fingerprint(prog); after != before {
				panic("exec: kernel program was mutated during Run (read-only AST contract violated)")
			}
		}()
	}
	// Containment for panics on the calling goroutine (host-side global
	// initialization and the sequential path). Installed after the
	// immutability defer so the assertion still panics outward; lockstep
	// thread goroutines carry their own recover.
	// The same defer returns the pooled state on a normal exit; a panic
	// may leave the state half-unwound, so it is dropped instead. It also
	// fills Options.Stats, on every return path.
	var (
		pool  *LaunchPool
		state *launchState
	)
	defer func() {
		var st Stats
		if r := recover(); r != nil {
			err = &CrashError{Msg: fmt.Sprintf("evaluator panic: %v", r)}
			st = panicStats(opts.Fuel)
		} else if state != nil {
			st = state.m.stats
			pool.put(state)
		}
		if opts.Stats != nil {
			*opts.Stats = st
		}
	}()
	if err := nd.Validate(); err != nil {
		return err
	}
	kernel := prog.Kernel()
	if kernel == nil {
		return fmt.Errorf("exec: program has no kernel")
	}
	if opts.Fuel <= 0 {
		opts.Fuel = 1 << 22
	}
	sequential := !opts.CheckRaces && (opts.NoBarrier || nd.GroupLinear() == 1)
	pool = opts.Pool
	if pool == nil {
		pool = sharedPool
	}
	key := poolSerial
	if !sequential {
		key = poolLockstep
	}
	state = pool.get(key)
	state.reset()
	m := &state.m
	m.prog = prog
	m.kernel = kernel
	m.nd = nd
	m.args = args
	m.opts = opts
	m.sequential = sequential
	if opts.Code != nil {
		m.code = opts.Code
		vmLaunches.Add(1)
	} else {
		treeLaunches.Add(1)
	}
	if opts.CheckRaces {
		m.interGroup = map[memKey]*accessRec{}
	}
	for _, f := range prog.Funcs {
		if f.Body != nil {
			m.funcs[f.Name] = f
		}
	}
	// Materialize program-scope constants once; they are read-only.
	// Initializers always run on the tree walker (host-side, once per
	// launch); globalCells records the cells in declaration order so the
	// VM's pre-resolved global operands index them directly.
	for _, g := range prog.Globals {
		c := NewCell(g.Type, cltypes.Constant)
		if g.Init != nil {
			th := &state.initThread
			th.resetState(m, nil, [3]int{}, [3]int{}, opts.Fuel)
			var v Value
			err := th.evalInit(g.Type, g.Init, &v)
			m.noteSteps(th)
			if err != nil {
				return err
			}
			if err := storeCell(c, &v); err != nil {
				return err
			}
		}
		m.globals[g.Name] = c
		m.globalCells = append(m.globalCells, c)
	}
	// Check arguments against kernel parameters.
	for _, p := range kernel.Params {
		if _, ok := m.args[p.Name]; !ok {
			return fmt.Errorf("exec: missing kernel argument %q", p.Name)
		}
	}
	// Work-groups run in group order (dimension 0 fastest), and the
	// first failing group ends the launch.
	ng := m.nd.NumGroups()
	for gz := 0; gz < ng[2]; gz++ {
		for gy := 0; gy < ng[1]; gy++ {
			for gx := 0; gx < ng[0]; gx++ {
				if cerr := m.ctxErr(); cerr != nil {
					return cerr
				}
				m.runGroup(&state.group, [3]int{gx, gy, gz})
				if m.err != nil {
					return m.err
				}
			}
		}
	}
	return nil
}

// fail records err as the launch verdict unless an earlier thread
// already failed.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// runThread runs one work-item and folds its step count into the
// launch's fuel high-water mark.
func (m *Machine) runThread(th *thread) error {
	err := th.run()
	m.noteSteps(th)
	return err
}

// noteSteps folds the steps a thread has charged against the launch's
// budget into the fuel high-water mark.
func (m *Machine) noteSteps(th *thread) {
	if used := m.opts.Fuel - th.fuel; used > m.stats.MaxThreadSteps {
		m.stats.MaxThreadSteps = used
	}
}

// defect reports whether the launch's defect set arms bit b, and records
// that the launch tested it. Every executor read of Options.Defects goes
// through here, so Stats.Tested covers every bit the outcome depends on.
// Each site calls it last, after the structural and hash-gate conditions
// the bit guards, so a launch records a bit only where the bit alone
// decides a branch and shares with every launch that reaches no such
// site (device.Share).
func (m *Machine) defect(b bugs.Set) bool {
	m.stats.Tested |= b
	return m.opts.Defects.Has(b)
}

func (m *Machine) hashGate(salt, divisor uint64) bool {
	return bugs.Gate(m.opts.Hash, salt, divisor)
}

// groupCtx is the shared state of one work-group.
type groupCtx struct {
	m   *Machine
	id  [3]int
	bar *barrier
	// ls serializes the group's thread goroutines into one deterministic
	// interleaving (nil on the sequential fast path, which needs none).
	ls    *lockstep
	local map[*ast.VarDecl]*Cell // local-memory variables, one per group
	races map[memKey]*accessRec  // intra-group access record, cleared at barriers
}

func (m *Machine) runGroup(gs *groupState, gid [3]int) {
	g := gs.resetGroup(m, gid)
	n := m.nd.GroupLinear()
	if m.sequential {
		m.runGroupSequential(gs, n)
		return
	}
	gs.bar.reset(n, g)
	g.bar = &gs.bar
	// The lockstep scheduler serializes the group's goroutines into one
	// deterministic interleaving: the baton visits threads in work-item
	// order at every scheduling point, so atomic operations and shared
	// stores land in the same order on every run. Without it, goroutine
	// scheduling would make atomic-using kernels nondeterministic, which
	// would break the differential oracle, the campaign result cache and
	// shard/merge byte-identity alike.
	gs.ls.reset(n)
	g.ls = &gs.ls
	// Per-thread barrier-round counts, compared after the group finishes:
	// the wait-based divergence check in barrier.quit only fires when some
	// thread is still blocked, which depends on arrival order; the count
	// comparison catches the early-exit divergence regardless.
	var barCounts []int
	if m.opts.CheckRaces {
		for len(gs.barCounts) < n {
			gs.barCounts = append(gs.barCounts, 0)
		}
		barCounts = gs.barCounts[:n]
		clear(barCounts)
	}
	var wg sync.WaitGroup
	idx := 0
	for lz := 0; lz < m.nd.Local[2]; lz++ {
		for ly := 0; ly < m.nd.Local[1]; ly++ {
			for lx := 0; lx < m.nd.Local[0]; lx++ {
				lid := [3]int{lx, ly, lz}
				th := gs.thread(idx)
				idx++
				th.resetState(m, g, m.gidOf(g, lid), lid, m.opts.Fuel)
				wg.Add(1)
				go func() {
					defer wg.Done()
					self := th.lidLinear()
					var err error
					// However the thread ends, it passes the baton on. That
					// includes a panic, contained here: only the baton
					// holder runs, so a panicking thread holds it.
					defer func() {
						if r := recover(); r != nil {
							err = &CrashError{Msg: fmt.Sprintf("evaluator panic: %v", r)}
							m.stats = panicStats(m.opts.Fuel)
						}
						if err != nil {
							// Record the verdict and ready the parked
							// siblings: each takes the baton in turn and
							// retires.
							m.fail(err)
							g.ls.readyAll()
						}
						g.ls.finish(self)
					}()
					g.ls.waitTurn(self)
					if m.err != nil {
						return // an earlier thread failed: retire without running
					}
					err = m.runThread(th)
					if barCounts != nil {
						barCounts[self] = th.barrierCount
					}
					if err == nil {
						err = g.bar.quit()
					}
				}()
			}
		}
	}
	g.ls.grant() // every thread starts ready: the baton goes to thread 0
	wg.Wait()
	if barCounts != nil && m.err == nil {
		for i := 1; i < n; i++ {
			if barCounts[i] != barCounts[0] {
				m.fail(&DivergenceError{Msg: fmt.Sprintf(
					"threads of group %v executed different barrier counts (%d vs %d)",
					g.id, barCounts[0], barCounts[i])})
				break
			}
		}
	}
}

// runGroupSequential executes the work-group's threads back-to-back on the
// calling goroutine. It is valid whenever no thread can block on another:
// the program issues no barriers (or the group has a single thread, for
// which every barrier releases immediately), and race checking — whose
// reports depend on interleaving — is off. No goroutines are spawned, no
// WaitGroup is touched, and the barrier object is allocated only when the
// program can actually reach a barrier call.
func (m *Machine) runGroupSequential(gs *groupState, n int) {
	g := &gs.g
	if !m.opts.NoBarrier {
		// Single-thread group of a barrier-using kernel: every await
		// releases immediately, but the builtin still needs the object.
		gs.bar.reset(n, g)
		g.bar = &gs.bar
	}
	// One VM register state serves every thread of the launch: they run
	// back-to-back on this goroutine, so the stacks amortize across
	// work-items and groups instead of being reallocated per thread.
	var sharedVM *vmState
	if m.code != nil {
		sharedVM = &m.state.serialVM
	}
	// One pooled thread serves every work-item of the group, reset (and
	// its arenas re-zeroed) between items, so the per-item state costs a
	// memclr of what the previous item actually used instead of fresh
	// allocations.
	th := &gs.seq
	for lz := 0; lz < m.nd.Local[2]; lz++ {
		for ly := 0; ly < m.nd.Local[1]; ly++ {
			for lx := 0; lx < m.nd.Local[0]; lx++ {
				lid := [3]int{lx, ly, lz}
				th.resetState(m, g, m.gidOf(g, lid), lid, m.opts.Fuel)
				th.vm = sharedVM
				if err := m.runThread(th); err != nil {
					m.fail(err)
					return
				}
			}
		}
	}
}

// gidOf maps a local id within group g to the global work-item id.
func (m *Machine) gidOf(g *groupCtx, lid [3]int) [3]int {
	return [3]int{
		g.id[0]*m.nd.Local[0] + lid[0],
		g.id[1]*m.nd.Local[1] + lid[1],
		g.id[2]*m.nd.Local[2] + lid[2],
	}
}

// lidLinear computes the linearized local id of the thread.
func (t *thread) lidLinear() int {
	return (t.lid[2]*t.m.nd.Local[1]+t.lid[1])*t.m.nd.Local[0] + t.lid[0]
}

func (t *thread) gidLinear() int {
	return (t.gid[2]*t.m.nd.Global[1]+t.gid[1])*t.m.nd.Global[0] + t.gid[0]
}

func (t *thread) groupLinear() int {
	ng := t.m.nd.NumGroups()
	return (t.group.id[2]*ng[1]+t.group.id[1])*ng[0] + t.group.id[0]
}

// ---- access records for the race checker ----

// memKey identifies one tracked memory location: a cell, or (for flat
// scalar buffers, which have no per-element cells) the address of the
// element's word in the backing store. Exactly one field is non-nil.
type memKey struct {
	c *Cell
	w *uint64
}

// space returns the address space of the location; flat words are always
// global memory.
func (k memKey) space() cltypes.AddrSpace {
	if k.c != nil {
		return k.c.Space
	}
	return cltypes.Global
}

type accessRec struct {
	// thread (intra-group) or group (inter-group) linear ids.
	readers map[int]bool
	writers map[int]bool
	atomics map[int]bool // atomic RMW accessors
}

func newAccessRec() *accessRec {
	return &accessRec{readers: map[int]bool{}, writers: map[int]bool{}, atomics: map[int]bool{}}
}

// note records an access by id and reports whether it races with a
// previously recorded access: two distinct accessors, at least one write,
// not both atomic (paper §3.1).
func (r *accessRec) note(id int, write, isAtomic bool) bool {
	race := false
	if isAtomic {
		for w := range r.writers {
			if w != id {
				race = true
			}
		}
		for rd := range r.readers {
			if rd != id {
				race = true
			}
		}
		r.atomics[id] = true
	} else {
		if write {
			for rd := range r.readers {
				if rd != id {
					race = true
				}
			}
			for w := range r.writers {
				if w != id {
					race = true
				}
			}
			for a := range r.atomics {
				if a != id {
					race = true
				}
			}
			r.writers[id] = true
		} else {
			for w := range r.writers {
				if w != id {
					race = true
				}
			}
			for a := range r.atomics {
				if a != id {
					race = true
				}
			}
			r.readers[id] = true
		}
	}
	return race
}

// noteAccess records a shared-memory access to a cell for the race checker
// and reports an error when a race is detected.
func (t *thread) noteAccess(c *Cell, write, isAtomic bool) error {
	if !t.m.opts.CheckRaces || !c.Shared {
		return nil
	}
	return t.noteLoc(memKey{c: c}, write, isAtomic)
}

// noteWordAccess is noteAccess for a flat buffer element (always shared
// global memory).
func (t *thread) noteWordAccess(w *uint64, write, isAtomic bool) error {
	if !t.m.opts.CheckRaces {
		return nil
	}
	return t.noteLoc(memKey{w: w}, write, isAtomic)
}

func (t *thread) noteLoc(loc memKey, write, isAtomic bool) error {
	// Intra-group record (cleared at barriers).
	g := t.group
	rec, ok := g.races[loc]
	if !ok {
		rec = newAccessRec()
		g.races[loc] = rec
	}
	if rec.note(t.lidLinear(), write, isAtomic) {
		return &RaceError{Msg: fmt.Sprintf("intra-group race on %s cell (group %v, thread %v)", loc.space(), g.id, t.lid)}
	}
	// Inter-group record for global memory (never cleared). Unlike the
	// paper's conservative definition we treat pairs of atomic accesses
	// as non-racing across groups: OpenCL 1.x global atomics are atomic
	// device-wide, and the standard benchmarks rely on this.
	if loc.space() == cltypes.Global {
		grec, ok := t.m.interGroup[loc]
		if !ok {
			grec = newAccessRec()
			t.m.interGroup[loc] = grec
		}
		if grec.note(t.groupLinear(), write, isAtomic) {
			return &RaceError{Msg: fmt.Sprintf("inter-group race on global cell (group %v, thread %v)", g.id, t.lid)}
		}
	}
	return nil
}

// clearRaces drops intra-group access records for the spaces covered by the
// barrier fence flags (bit 0: local, bit 1: global).
func (g *groupCtx) clearRaces(fence uint64) {
	if !g.m.opts.CheckRaces {
		return
	}
	for loc := range g.races {
		if sp := loc.space(); (sp == cltypes.Local && fence&1 != 0) || (sp == cltypes.Global && fence&2 != 0) {
			delete(g.races, loc)
		}
	}
}
