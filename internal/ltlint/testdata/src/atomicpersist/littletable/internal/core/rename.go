package core

// renameOnly renames without syncing the parent directory: on power loss
// the rename itself can vanish.
func (t *T) renameOnly(from, to string) error {
	return t.fs.Rename(from, to) // want `raw FS.Rename outside internal/vfs`
}
