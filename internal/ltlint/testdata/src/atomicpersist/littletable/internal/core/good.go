package core

import "littletable/internal/vfs"

// writeAtomic goes through the helper that owns the recipe.
func (t *T) writeAtomic(path string, data []byte) error {
	return vfs.WriteFileAtomic(t.fs, path, data, true)
}
