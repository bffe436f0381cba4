package core

// writeDirect creates the durable file at its final name: a crash
// mid-write leaves a half-written file recovery will open.
func (t *T) writeDirect(path string, data []byte) error {
	f, err := t.fs.Create(path) // want `raw FS.Create outside internal/vfs`
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
