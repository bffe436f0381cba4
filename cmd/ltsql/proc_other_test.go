//go:build !linux

package main

import "os/exec"

// dieWithTest is a no-op where the kernel has no parent-death signal.
func dieWithTest(*exec.Cmd) {}
