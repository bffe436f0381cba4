package blockcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1000)
	k := Key{Handle: 1, Index: 0}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, "block", 100)
	v, ok := c.Get(k)
	if !ok || v.(string) != "block" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats %d/%d", hits, misses)
	}
	if c.UsedBytes() != 100 || c.Len() != 1 {
		t.Errorf("used %d len %d", c.UsedBytes(), c.Len())
	}
}

func TestEvictionLRU(t *testing.T) {
	c := New(300)
	for i := 0; i < 3; i++ {
		c.Put(Key{Handle: 1, Index: i}, i, 100)
	}
	// Touch 0 so 1 becomes the LRU, then overflow.
	c.Get(Key{Handle: 1, Index: 0})
	c.Put(Key{Handle: 1, Index: 3}, 3, 100)
	if _, ok := c.Get(Key{Handle: 1, Index: 1}); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(Key{Handle: 1, Index: 0}); !ok {
		t.Error("recently used entry evicted")
	}
	if c.UsedBytes() > 300 {
		t.Errorf("over budget: %d", c.UsedBytes())
	}
}

func TestOversizedValueRejected(t *testing.T) {
	c := New(100)
	c.Put(Key{Handle: 1}, "big", 200)
	if c.Len() != 0 {
		t.Error("oversized value cached")
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(1000)
	k := Key{Handle: 1, Index: 5}
	c.Put(k, "v1", 100)
	c.Put(k, "v2", 300)
	v, _ := c.Get(k)
	if v.(string) != "v2" {
		t.Error("update lost")
	}
	if c.UsedBytes() != 300 {
		t.Errorf("size accounting after update: %d", c.UsedBytes())
	}
}

func TestHandleIsolation(t *testing.T) {
	c := New(1000)
	c.Put(Key{Handle: 1, Index: 0}, "a", 10)
	if _, ok := c.Get(Key{Handle: 2, Index: 0}); ok {
		t.Error("handles collide")
	}
}

func TestConcurrent(t *testing.T) {
	c := New(10_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Handle: uint64(g), Index: i % 50}
				if v, ok := c.Get(k); ok {
					if v.(string) != fmt.Sprintf("%d-%d", g, i%50) {
						t.Errorf("cross-goroutine value corruption")
						return
					}
				} else {
					c.Put(k, fmt.Sprintf("%d-%d", g, i%50), 25)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.UsedBytes() > 10_000 {
		t.Errorf("over budget under concurrency: %d", c.UsedBytes())
	}
}

func TestGetOrLoadSingleflight(t *testing.T) {
	c := New(10_000)
	k := Key{Handle: 1, Index: 1}
	var loads atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrLoad(k, func() (interface{}, int64, error) {
				loads.Add(1)
				<-gate // hold every concurrent caller at the load
				return "block", 5, nil
			})
			if err != nil || v.(string) != "block" {
				t.Errorf("GetOrLoad: %v %v", v, err)
			}
		}()
	}
	// Release the load only once the other seven have joined the flight:
	// each counts its dedup under the cache lock before it blocks. Opening
	// the gate at the first load let a late caller hit the cached block
	// instead.
	for c.Dedups() < 7 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("load ran %d times, want 1 (singleflight)", n)
	}
	if h, m := c.Stats(); m != 1 {
		t.Errorf("hits %d misses %d, want 1 miss", h, m)
	}
	if d := c.Dedups(); d != 7 {
		t.Errorf("dedups = %d, want 7", d)
	}
	if v, ok := c.Get(k); !ok || v.(string) != "block" {
		t.Error("loaded value not cached")
	}
}

func TestGetOrLoadErrorNotCached(t *testing.T) {
	c := New(10_000)
	k := Key{Handle: 1, Index: 2}
	boom := errors.New("read failed")
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrLoad(k, func() (interface{}, int64, error) {
			calls++
			return nil, 0, boom
		}); err != boom {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
	}
	if calls != 2 {
		t.Errorf("loader ran %d times, want 2: errors must not be cached", calls)
	}
	if _, ok := c.Get(k); ok {
		t.Error("failed load left an entry behind")
	}
}
