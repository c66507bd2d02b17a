package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds every child process; a child still running then is
// killed and counted as a failed case.
const childTimeout = 120 * time.Second

// childEnv is the environment of every child the benchmark starts: its
// own, minus the CLFUZZ_* switches and the Go runtime tuning variables, so
// children run the defaults a user gets, on GOMAXPROCS=2. extra entries
// (KEY=value) are appended.
func childEnv(extra ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		key, _, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(key, "CLFUZZ_"),
			key == "GOMAXPROCS", key == "GOGC", key == "GOMEMLIMIT", key == "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	env = append(env, "GOMAXPROCS=2")
	return append(env, extra...)
}

// sample is one measured child process (or the sum over a pass of them).
type sample struct {
	wall, cpu float64 // seconds
	rssMB     float64 // peak resident set
}

// proc is a finished child process.
type proc struct {
	sample
	stdout, stderr string
}

// run starts the named program, waits for it, and measures it: wall time
// from start to exit, user+system CPU and peak RSS from its rusage. A
// non-zero exit is an error carrying the tail of its standard error.
func run(env []string, name string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	// A child must not outlive a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	p := proc{stdout: stdout.String(), stderr: stderr.String()}
	p.wall = time.Since(start).Seconds()
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			p.cpu = tv(ru.Utime) + tv(ru.Stime)
			p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		tail := p.stderr
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return p, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(tail))
	}
	return p, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
