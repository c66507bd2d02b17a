package exhibits

import (
	"fmt"

	"clfuzz/internal/bugs"
	"clfuzz/internal/campaign"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/opt"
)

// Misbehaviour classifies what an affected configuration does with the
// exhibit.
type Misbehaviour int

// Misbehaviour kinds.
const (
	WrongResult  Misbehaviour = iota // terminates with the wrong value
	BuildFails                       // internal compiler error
	CompileHangs                     // compiler does not terminate (timeout)
	RunCrashes                       // crashes at runtime
)

// Affected names one configuration/optimization level that exhibits the
// bug.
type Affected struct {
	ConfigID int
	Optimize bool
	Kind     Misbehaviour
	// Output is the documented buggy value of out[...] for WrongResult
	// exhibits where the paper states it (index 0 unless OutputIdx set).
	Output    uint64
	HasOutput bool
	OutputIdx int
}

// Exhibit is one sub-figure.
type Exhibit struct {
	ID      string // e.g. "1a"
	Figure  int
	Caption string
	Src     string
	ND      exec.NDRange
	// Expected is the correct out[0] (or out[OutputIdx]) value.
	Expected []uint64
	Affected []Affected
	// MakeArgs builds kernel arguments; nil means only the out buffer.
	MakeArgs func() (exec.Args, *exec.Buffer)
}

// Args returns the argument set and result buffer for the exhibit.
func (e *Exhibit) Args() (exec.Args, *exec.Buffer) {
	if e.MakeArgs != nil {
		return e.MakeArgs()
	}
	out := exec.NewBuffer(cltypes.TULong, e.ND.GlobalLinear())
	return exec.Args{"out": {Buf: out}}, out
}

func nd(n, w int) exec.NDRange {
	return exec.NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{w, 1, 1}}
}

func both(id int, kind Misbehaviour) []Affected {
	return []Affected{
		{ConfigID: id, Optimize: false, Kind: kind},
		{ConfigID: id, Optimize: true, Kind: kind},
	}
}

// All returns the twelve exhibits of Figures 1 and 2.
func All() []*Exhibit {
	all := []*Exhibit{
		Fig1a(), Fig1b(), Fig1c(), Fig1d(), Fig1e(), Fig1f(),
		Fig2a(), Fig2b(), Fig2c(), Fig2d(), Fig2e(), Fig2f(),
	}
	for _, e := range all {
		e.tune()
	}
	return all
}

// tune appends an inert program-scope constant to the exhibit source
// until no hash-gated defect interferes: the configurations the exhibit
// documents (plus the NVIDIA configuration used as the unaffected
// control) must have clean gates, so only the documented deterministic
// defect manifests. The tuning declaration must survive canonical
// re-printing — gates key on the canonical normal form of the source, so
// a comment (which the parser strips) could no longer move them.
func (e *Exhibit) tune() {
	clean := func(src string) bool {
		for _, a := range e.Affected {
			cfg := device.ByID(a.ConfigID)
			if cfg != nil && !cfg.GatesClean(src, a.Optimize) {
				return false
			}
		}
		if !device.ByID(1).GatesClean(src, true) {
			return false
		}
		if e.ID == "2e" && !opt.GroupIDGate(bugs.Hash(device.CanonicalSource(src))) {
			return false
		}
		return true
	}
	src := e.Src
	for i := 0; i < 100000 && !clean(src); i++ {
		src = e.Src + fmt.Sprintf("constant int gate_tuning_%d = %d;\n", i, i)
	}
	e.Src = src
}

// ByID returns the exhibit with the given id ("1a".."2f"), or nil.
func ByID(id string) *Exhibit {
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Fig1a is the AMD char-first struct miscompilation: configs 5+, 6+, 16+
// yield 1 where 2 is expected.
func Fig1a() *Exhibit {
	return &Exhibit{
		ID: "1a", Figure: 1,
		Caption: "Configs. 5+, 6+, 16+ yield result 1 (expected: 2)",
		Src: `
struct S { char a; short b; };

kernel void entry(global ulong *out) {
    struct S s = { 1, 1 };
    out[get_linear_global_id()] = (ulong)(s.a + s.b);
}
`,
		ND:       nd(1, 1),
		Expected: []uint64{2},
		Affected: []Affected{
			{ConfigID: 5, Optimize: true, Kind: WrongResult, Output: 1, HasOutput: true},
			{ConfigID: 6, Optimize: true, Kind: WrongResult, Output: 1, HasOutput: true},
			{ConfigID: 16, Optimize: true, Kind: WrongResult, Output: 1, HasOutput: true},
		},
	}
}

// Fig1b is the anonymous-GPU struct copy bug: configs 10-, 11- lose an
// array element during struct assignment, but only when Nx = 1.
func Fig1b() *Exhibit {
	return &Exhibit{
		ID: "1b", Figure: 1,
		Caption: "Configs. 10-, 11- yield result 0 (expected: 1); only when Nx = 1",
		Src: `
typedef struct {
    short a; int b; volatile char c;
    int d; int e; short f[10];
} S;

kernel void entry(global ulong *out) {
    S s;
    S t = { 0, 0, 0, 0, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 0} };
    S *p = &s;
    s = t;
    out[get_linear_global_id()] = (ulong)p->f[7];
}
`,
		ND:       nd(1, 1), // Nx = 1, the curious trigger condition
		Expected: []uint64{1},
		Affected: []Affected{
			{ConfigID: 10, Optimize: false, Kind: WrongResult, Output: 0, HasOutput: true},
			{ConfigID: 11, Optimize: false, Kind: WrongResult, Output: 0, HasOutput: true},
		},
	}
}

// Fig1c is the Altera vector-in-struct internal error.
func Fig1c() *Exhibit {
	return &Exhibit{
		ID: "1c", Figure: 1,
		Caption: "Configs. 20±, 21± yield internal errors when vectors appear in structs",
		Src: `
struct S { int4 x; };

kernel void entry(global ulong *out) {
    struct S s = { (int4)(1, 1, 1, 1) };
    out[get_linear_global_id()] = (ulong)s.x.x;
}
`,
		ND:       nd(1, 1),
		Expected: []uint64{1},
		Affected: append(both(20, BuildFails), both(21, BuildFails)...),
	}
}

// Fig1d is the config-17 lost store through a struct pointer after a
// barrier.
func Fig1d() *Exhibit {
	return &Exhibit{
		ID: "1d", Figure: 1,
		Caption: "Configs. 17± yield result 2 (expected result: 3)",
		Src: `
typedef struct { int x; int y; } S;

void f(S *p) { p->x = 2; }

kernel void entry(global ulong *out) {
    S s = { 1, 1 };
    barrier(CLK_LOCAL_MEM_FENCE);
    f(&s);
    out[get_linear_global_id()] = (ulong)(s.x + s.y);
}
`,
		ND:       nd(2, 2),
		Expected: []uint64{3, 3},
		Affected: []Affected{
			{ConfigID: 17, Optimize: false, Kind: WrongResult, Output: 2, HasOutput: true},
			{ConfigID: 17, Optimize: true, Kind: WrongResult, Output: 2, HasOutput: true},
		},
	}
}

// Fig1e is the Intel HD Graphics compile hang.
func Fig1e() *Exhibit {
	e := &Exhibit{
		ID: "1e", Figure: 1,
		Caption: "Configs. 8±, 7± enter an infinite loop during compilation of this kernel",
		Src: `
kernel void entry(global ulong *out, global int *p) {
    for (int i = 0; i < 197; i++) {
        if (p[0]) {
            while (1) { }
        }
    }
    out[get_linear_global_id()] = 0UL;
}
`,
		ND:       nd(1, 1),
		Expected: []uint64{0},
		Affected: append(both(7, CompileHangs), both(8, CompileHangs)...),
	}
	e.MakeArgs = func() (exec.Args, *exec.Buffer) {
		out := exec.NewBuffer(cltypes.TULong, 1)
		p := exec.NewBuffer(cltypes.TInt, 1) // p[0] = 0: the loop is never entered
		return exec.Args{"out": {Buf: out}, "p": {Buf: p}}, out
	}
	return e
}

// Fig1f is the Xeon Phi prohibitively slow compilation of a large struct
// with a barrier.
func Fig1f() *Exhibit {
	return &Exhibit{
		ID: "1f", Figure: 1,
		Caption: "Config. 18+ takes more than 20s to compile this kernel",
		Src: `
typedef struct { int a; int *b; ulong c[9][9][3]; } S;

kernel void entry(global ulong *out) {
    S s;
    S t = { 0, 0, { { { 0, 0, 0 } } } };
    S *p = &s;
    s = t;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_linear_global_id()] = p->c[0][0][1];
}
`,
		ND:       nd(2, 2),
		Expected: []uint64{0, 0},
		Affected: []Affected{{ConfigID: 18, Optimize: true, Kind: CompileHangs}},
	}
}

// Fig2a is the NVIDIA union initialization bug at -cl-opt-disable.
func Fig2a() *Exhibit {
	e := &Exhibit{
		ID: "2a", Figure: 2,
		Caption: "Configs. 1-, 2-, 3-, 4- yield 0xffff0001 due to incorrect union initialization (expected: 1)",
		Src: `
struct S { short c; long d; };
union U { uint a; struct S b; };
struct T { union U u[1]; ulong x; ulong y; };

kernel void entry(global ulong *out, global int *in) {
    struct T c;
    struct T t = { { { 1 } }, 7UL, 9UL };
    c = t;
    ulong total = 0UL;
    for (int i = 0; i < 1; i++) {
        total = total + (ulong)c.u[i].a;
    }
    out[get_linear_global_id()] = total;
}
`,
		ND:       nd(1, 1),
		Expected: []uint64{1},
	}
	for _, id := range []int{1, 2, 3, 4} {
		e.Affected = append(e.Affected, Affected{
			ConfigID: id, Optimize: false, Kind: WrongResult, Output: 0xffff0001, HasOutput: true,
		})
	}
	e.MakeArgs = func() (exec.Args, *exec.Buffer) {
		out := exec.NewBuffer(cltypes.TULong, 1)
		in := exec.NewBuffer(cltypes.TInt, 2)
		in.SetScalar(0, 7)
		in.SetScalar(1, 9)
		return exec.Args{"out": {Buf: out}, "in": {Buf: in}}, out
	}
	return e
}

// Fig2b is the Intel i5 rotate constant-folding bug.
func Fig2b() *Exhibit {
	return &Exhibit{
		ID: "2b", Figure: 2,
		Caption: "Config. 14± yields result 0xffffffff (expected: 1)",
		Src: `
kernel void entry(global ulong *out) {
    out[get_linear_global_id()] = (ulong)(rotate((uint2)(1, 1), (uint2)(0, 0))).x;
}
`,
		ND:       nd(1, 1),
		Expected: []uint64{1},
		Affected: []Affected{
			{ConfigID: 14, Optimize: false, Kind: WrongResult, Output: 0xffffffff, HasOutput: true},
			{ConfigID: 14, Optimize: true, Kind: WrongResult, Output: 0xffffffff, HasOutput: true},
		},
	}
}

// Fig2c is the Intel barrier/forward-declaration bug: wrong results on
// 12-/13-, segmentation faults on 14-/15-.
func Fig2c() *Exhibit {
	return &Exhibit{
		ID: "2c", Figure: 2,
		Caption: "Configs. 12-, 13- yield [1,0] with two threads in a group (expected [1,1]); configs. 14-, 15- crash",
		Src: `
int f(void);

void g(int *p) {
    barrier(CLK_LOCAL_MEM_FENCE);
    *p = f();
}

void h(int *p) { g(p); }

int f(void) {
    barrier(CLK_LOCAL_MEM_FENCE);
    return 1;
}

kernel void entry(global ulong *out) {
    int x = 0;
    h(&x);
    out[get_linear_global_id()] = (ulong)x;
}
`,
		ND:       nd(2, 2),
		Expected: []uint64{1, 1},
		Affected: []Affected{
			{ConfigID: 12, Optimize: false, Kind: WrongResult, Output: 0, HasOutput: true, OutputIdx: 1},
			{ConfigID: 13, Optimize: false, Kind: WrongResult, Output: 0, HasOutput: true, OutputIdx: 1},
			{ConfigID: 14, Optimize: false, Kind: RunCrashes},
			{ConfigID: 15, Optimize: false, Kind: RunCrashes},
		},
	}
}

// Fig2d is the Intel unreachable-loop-with-barrier bug.
func Fig2d() *Exhibit {
	return &Exhibit{
		ID: "2d", Figure: 2,
		Caption: "Configs. 14-, 15- yield [0,1] with two threads in a group (expected [0,0])",
		Src: `
typedef struct { int a; int b; int c; } S;

void f(S *s) {
    for (s->a = 0; s->a > 0; s->a = 0) {
        int x = 1;
        barrier(CLK_LOCAL_MEM_FENCE);
        s->c = safe_add(s->c, x);
    }
}

kernel void entry(global ulong *out) {
    S s = { 1, 0, 0 };
    f(&s);
    out[get_linear_global_id()] = (ulong)s.a;
}
`,
		ND:       nd(2, 2),
		Expected: []uint64{0, 0},
		Affected: []Affected{
			{ConfigID: 14, Optimize: false, Kind: WrongResult, Output: 1, HasOutput: true, OutputIdx: 1},
			{ConfigID: 15, Optimize: false, Kind: WrongResult, Output: 1, HasOutput: true, OutputIdx: 1},
		},
	}
}

// Fig2e is the anonymous-GPU group-id comparison bug. The source carries a
// tuning comment appended until its hash passes the defect's program-level
// gate, making the exhibit deterministic.
func Fig2e() *Exhibit {
	base := `
void f(int *p) {
    if (((((*p - get_group_id(0)) != 1UL) >> *p) < 2UL) >= (ulong)*p) {
        *p = 1;
    }
}

kernel void entry(global ulong *out) {
    int x = 0;
    f(&x);
    out[get_linear_global_id()] = (ulong)x;
}
`
	return &Exhibit{
		ID: "2e", Figure: 2,
		Caption:  "Config. 9+ yields result 0 (expected: 1)",
		Src:      base,
		ND:       nd(1, 1),
		Expected: []uint64{1},
		Affected: []Affected{
			{ConfigID: 9, Optimize: true, Kind: WrongResult, Output: 0, HasOutput: true},
		},
	}
}

// Fig2f is the Oclgrind comma-operator bug.
func Fig2f() *Exhibit {
	return &Exhibit{
		ID: "2f", Figure: 2,
		Caption: "Config. 19± yields result 0 (expected: 0xffffffff)",
		Src: `
kernel void entry(global ulong *out) {
    short x = 1;
    uint y;
    for (y = 4294967295u; y >= 1u; ++y) {
        if ((x , 1)) { break; }
    }
    out[get_linear_global_id()] = (ulong)y;
}
`,
		ND:       nd(1, 1),
		Expected: []uint64{0xffffffff},
		Affected: []Affected{
			{ConfigID: 19, Optimize: false, Kind: WrongResult, Output: 0, HasOutput: true},
			{ConfigID: 19, Optimize: true, Kind: WrongResult, Output: 0, HasOutput: true},
		},
	}
}

// Verify checks one exhibit: the reference configuration produces the
// expected output, and every affected configuration exhibits its
// documented misbehaviour. It returns a descriptive error on any
// mismatch. Launches go through the shared campaign engine, so the
// exhibit source parses once, configurations sharing a defect model
// share one compiled kernel, and repeated verifications (the Figure
// benchmarks in bench_test.go, CI) are served by the result cache.
func Verify(e *Exhibit) error {
	c := campaign.Case{Name: e.ID, Src: e.Src, ND: e.ND, Buffers: e.Args}
	rr := campaign.Default.RunCase(device.Reference(), true, c, campaign.LaunchOptions{})
	if rr.Compile {
		return fmt.Errorf("%s: reference compile failed: %s", e.ID, rr.Msg)
	}
	if rr.Outcome != device.OK {
		return fmt.Errorf("%s: reference run failed: %s", e.ID, rr.Msg)
	}
	for i, want := range e.Expected {
		if rr.Output[i] != want {
			return fmt.Errorf("%s: reference out[%d] = %#x, expected %#x", e.ID, i, rr.Output[i], want)
		}
	}
	for _, a := range e.Affected {
		cfg := device.ByID(a.ConfigID)
		if cfg == nil {
			return fmt.Errorf("%s: unknown config %d", e.ID, a.ConfigID)
		}
		crr := campaign.Default.RunCase(cfg, a.Optimize, c, campaign.LaunchOptions{})
		switch a.Kind {
		case BuildFails:
			if !(crr.Compile && crr.Outcome == device.BuildFailure) {
				return fmt.Errorf("%s: config %d opt=%v: expected build failure, got %s",
					e.ID, a.ConfigID, a.Optimize, crr.Outcome)
			}
			continue
		case CompileHangs:
			if !(crr.Compile && crr.Outcome == device.Timeout) {
				return fmt.Errorf("%s: config %d opt=%v: expected compile hang, got %s",
					e.ID, a.ConfigID, a.Optimize, crr.Outcome)
			}
			continue
		}
		if crr.Compile {
			return fmt.Errorf("%s: config %d opt=%v: compile failed unexpectedly: %s",
				e.ID, a.ConfigID, a.Optimize, crr.Msg)
		}
		switch a.Kind {
		case RunCrashes:
			if crr.Outcome != device.Crash {
				return fmt.Errorf("%s: config %d opt=%v: expected crash, got %s",
					e.ID, a.ConfigID, a.Optimize, crr.Outcome)
			}
		case WrongResult:
			if crr.Outcome != device.OK {
				return fmt.Errorf("%s: config %d opt=%v: expected wrong result, got %s (%s)",
					e.ID, a.ConfigID, a.Optimize, crr.Outcome, crr.Msg)
			}
			if a.HasOutput {
				got := crr.Output[a.OutputIdx]
				if got != a.Output {
					return fmt.Errorf("%s: config %d opt=%v: out[%d] = %#x, documented buggy value %#x",
						e.ID, a.ConfigID, a.Optimize, a.OutputIdx, got, a.Output)
				}
			} else if oracleEqual(crr.Output, e.Expected) {
				return fmt.Errorf("%s: config %d opt=%v: result unexpectedly correct",
					e.ID, a.ConfigID, a.Optimize)
			}
		}
	}
	return nil
}

func oracleEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render formats the exhibits of one figure like the paper.
func Render(figure int) string {
	out := ""
	for _, e := range All() {
		if e.Figure != figure {
			continue
		}
		out += fmt.Sprintf("--- Figure %d(%s): %s\n%s\n", figure, e.ID[1:], e.Caption, e.Src)
	}
	return out
}
