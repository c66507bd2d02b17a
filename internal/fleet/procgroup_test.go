//go:build unix

package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestTimeoutKillsWorkerChildren times out a worker that backgrounded
// a child: the supervisor kills the worker's whole process group, so the
// child dies with it instead of running on orphaned.
func TestTimeoutKillsWorkerChildren(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 1)
	script := `
if [ ! -e "$4/latch" ]; then touch "$4/latch"; sleep 300 & echo $! > "$4/child.pid"; wait; fi
` + copyScript
	rep, err := Run(context.Background(), p, Config{
		Shards:        1,
		Retries:       1,
		ShardTimeout:  500 * time.Millisecond,
		Backoff:       5 * time.Millisecond,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(script, scratch),
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 2 {
		t.Fatalf("launches = %d, want 2 (the timed-out attempt and its retry)", rep.Launches)
	}
	b, err := os.ReadFile(filepath.Join(scratch, "child.pid"))
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	// The sleep is not this process's child, so it cannot be waited for:
	// poll until it has died. A dead process that its new parent has not
	// reaped yet is a zombie, which counts as gone.
	gone := func() bool {
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			return true
		}
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		i := bytes.LastIndexByte(stat, ')')
		return err == nil && i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
	}
	for deadline := time.Now().Add(5 * time.Second); !gone(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			_ = syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("the timed-out worker's child %d is still running", pid)
		}
	}
}
