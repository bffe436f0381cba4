package server

import (
	"sync"
	"sync/atomic"
)

type S struct {
	wg    sync.WaitGroup
	track sync.WaitGroup
	jobs  chan int
}

// spawnTracked is the canonical Add-before-spawn, Done-in-body shape.
func (s *S) spawnTracked() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.jobs
	}()
}

// spawnField proves WaitGroup-ness through the receiver's struct field
// type — the field name carries no "wg" hint.
func (s *S) spawnField() {
	s.track.Add(1)
	go func() {
		defer s.track.Done()
		<-s.jobs
	}()
}

// spawnLoose outlives any drain: nothing ties it to a WaitGroup.
func (s *S) spawnLoose() {
	go func() { // want `goroutine is not tied to a WaitGroup`
		<-s.jobs
	}()
}

// worker receives the group and proves itself with a deferred Done.
func worker(wg *sync.WaitGroup, jobs chan int) {
	go func() {
		defer wg.Done()
		<-jobs
	}()
}

// spawnOwned has a deliberate non-WaitGroup lifecycle: Close closes stop
// and the select exits.
func (s *S) spawnOwned(stop chan struct{}) {
	//ltlint:ignore gotrack prober owns this goroutine: Close closes stop and the select exits
	go func() {
		select {
		case <-s.jobs:
		case <-stop:
		}
	}()
}

// spawnParam is tracked through a group its caller owns; the parameter's
// type, not its name, makes it a WaitGroup.
func spawnParam(g *sync.WaitGroup, jobs chan int) {
	g.Add(1)
	go func() {
		defer g.Done()
		<-jobs
	}()
}

// spawnCounted bumps a counter whose name looks like a group, but an
// atomic.Int64 ties the goroutine to nothing.
func (s *S) spawnCounted(wgCount *atomic.Int64) {
	wgCount.Add(1)
	go func() { // want `goroutine is not tied to a WaitGroup`
		<-s.jobs
	}()
}
