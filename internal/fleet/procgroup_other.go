//go:build !unix

package fleet

import osexec "os/exec"

// Process groups are a Unix notion; elsewhere a worker's own children
// are not tracked.
func ownGroup(*osexec.Cmd)  {}
func killGroup(*osexec.Cmd) {}
