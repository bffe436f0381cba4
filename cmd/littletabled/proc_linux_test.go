package main

import (
	"os/exec"
	"syscall"
)

// dieWithTest has the kernel SIGKILL cmd's process when the test binary
// that started it dies, so a test killed by -timeout or a signal, which
// skips its cleanups, cannot leave a daemon running.
func dieWithTest(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
