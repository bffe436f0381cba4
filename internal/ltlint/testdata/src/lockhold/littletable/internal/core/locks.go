package core

import "sync"

type T struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	wg   sync.WaitGroup
	c    chan int
}

func (t *T) sendLocked() {
	t.mu.Lock()
	t.c <- 1 // want `channel send while holding t\.mu`
	t.mu.Unlock()
}

func (t *T) recvDeferred() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return <-t.c // want `channel receive while holding t\.mu`
}

func (t *T) recvReadLocked() int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return <-t.c // want `channel receive while holding t\.rw`
}

func (t *T) blockingSelect() {
	t.mu.Lock()
	select { // want `blocking select while holding t\.mu`
	case <-t.c:
	}
	t.mu.Unlock()
}

// nonBlockingKick is the level-trigger doorbell idiom: select with a
// default never blocks, so it is legal under the lock.
func (t *T) nonBlockingKick() {
	t.mu.Lock()
	select {
	case t.c <- 1:
	default:
	}
	t.mu.Unlock()
}

// condWait is the backpressure idiom: sync.Cond.Wait releases the mutex
// while parked, so it is exempt.
func (t *T) condWait() {
	t.mu.Lock()
	for len(t.c) == 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *T) wgWaitLocked() {
	t.mu.Lock()
	t.wg.Wait() // want `t\.wg\.Wait\(\) while holding t\.mu`
	t.mu.Unlock()
}

// unlockedOps shows sequential tracking: after the unlock, everything is
// legal again.
func (t *T) unlockedOps() {
	t.mu.Lock()
	t.mu.Unlock()
	t.c <- 1
	t.wg.Wait()
}

// branchUnlock shows the early-out shape the write pipeline uses.
func (t *T) branchUnlock() {
	t.mu.Lock()
	if len(t.c) > 0 {
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	<-t.c
}

// iife runs inline, so its body executes under the lock.
func (t *T) iife() {
	t.mu.Lock()
	func() {
		<-t.c // want `channel receive while holding t\.mu`
	}()
	t.mu.Unlock()
}

// spawned bodies run on their own goroutine, outside the critical
// section.
func (t *T) spawned() {
	t.mu.Lock()
	go func() {
		<-t.c
	}()
	t.mu.Unlock()
}

// suppressed shows the escape hatch: a justified ignore.
func (t *T) suppressed() {
	t.mu.Lock()
	//ltlint:ignore lockhold send to a buffered(1) doorbell drained only by this goroutine
	t.c <- 1
	t.mu.Unlock()
}

// waitParamLocked waits on a group its caller passed in: the receiver is
// a parameter, not a field, and its type still says WaitGroup.
func (t *T) waitParamLocked(wg *sync.WaitGroup) {
	t.mu.Lock()
	wg.Wait() // want `wg\.Wait\(\) while holding t\.mu`
	t.mu.Unlock()
}

// waitLocalLocked waits on a local group under the lock.
func (t *T) waitLocalLocked() {
	done := &sync.WaitGroup{}
	t.mu.Lock()
	done.Wait() // want `done\.Wait\(\) while holding t\.mu`
	t.mu.Unlock()
}
