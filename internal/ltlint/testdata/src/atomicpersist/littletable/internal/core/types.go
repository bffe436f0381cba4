package core

import "littletable/internal/vfs"

type T struct {
	fs  vfs.FS
	dir string
}
