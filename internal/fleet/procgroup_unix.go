//go:build unix

package fleet

import (
	osexec "os/exec"
	"syscall"
)

// ownGroup makes the worker lead a process group of its own.
func ownGroup(cmd *osexec.Cmd) {
	if cmd.SysProcAttr == nil {
		cmd.SysProcAttr = &syscall.SysProcAttr{}
	}
	cmd.SysProcAttr.Setpgid = true
}

// killGroup kills whatever is left of the exited worker's process group.
func killGroup(cmd *osexec.Cmd) {
	if cmd.Process != nil {
		// ESRCH when nothing of the group is left.
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
}
