package core

import (
	"sync"

	"littletable/internal/tablet"
)

type U struct {
	mu sync.Mutex
	st *tablet.Store
}

// install reaches the tablet store's SyncDir through a method call on
// another package's type while holding U.mu.
func (u *U) install() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.st.Commit()
}
