package main

import (
	"os/exec"
	"syscall"
)

// dieWithTest has the kernel SIGKILL cmd's process when the test binary
// that started it dies, so a test killed by -timeout or a signal cannot
// leave a build or an ltsql run behind.
func dieWithTest(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
