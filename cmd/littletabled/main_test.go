package main

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"littletable"
)

// startDaemon runs the daemon binary on a free loopback port with args
// and returns it with a client connected to it. The daemon is killed
// when the test ends, and with the test binary if that dies first.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, *littletable.Client) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	dieWithTest(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := littletable.Dial(addr)
		if err == nil {
			t.Cleanup(func() { c.Close() })
			return cmd, c
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "littletabled")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestDaemonServesAndShutsDown starts the real daemon process, drives it
// over the wire, and stops it with SIGTERM.
func TestDaemonServesAndShutsDown(t *testing.T) {
	root := t.TempDir()
	cmd, c := startDaemon(t, buildDaemon(t), "-root", root, "-flush-on-exit")

	sc := littletable.MustSchema([]littletable.Column{
		{Name: "k", Type: littletable.Int64},
		{Name: "ts", Type: littletable.Timestamp},
	}, []string{"k", "ts"})
	if err := c.CreateTable("t", sc, 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertNow([]littletable.Row{{
		littletable.NewInt64(1), littletable.NewTimestamp(littletable.Now()),
	}}); err != nil {
		t.Fatal(err)
	}

	// Graceful shutdown; -flush-on-exit makes the row durable.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	cmd.Process = nil

	// The flushed row survives a daemon restart (open the dir directly).
	tab2, err := littletable.OpenTable(root, "t", littletable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tab2.Close()
	rows, err := tab2.QueryAll(littletable.NewQuery())
	if err != nil || len(rows) != 1 {
		t.Fatalf("after restart: %d rows, %v", len(rows), err)
	}
}

// TestDaemonDrainsIdleConnsPromptly proves the SIGTERM drain does not
// wait out -drain-timeout when connected clients are merely idle: idle
// connections are closed immediately and the process exits, leaving the
// client with a typed disconnect.
func TestDaemonDrainsIdleConnsPromptly(t *testing.T) {
	cmd, c := startDaemon(t, buildDaemon(t), "-root", t.TempDir(),
		"-drain-timeout", "30s", "-max-in-flight", "64")
	if _, err := c.ListTables(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon sat out the drain timeout on idle connections")
	}
	cmd.Process = nil
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain of idle conns took %v", elapsed)
	}
	if _, err := c.ListTables(); !errors.Is(err, littletable.ErrClientDisconnected) {
		t.Fatalf("after drain: %v, want ErrClientDisconnected", err)
	}
}
