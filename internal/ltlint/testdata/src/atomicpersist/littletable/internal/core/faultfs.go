package core

import fs "littletable/internal/vfs"

// faultFS is middleware over vfs.FS imported under another name: it
// embeds the FS and relays Create, so it is exempt like meter.
type faultFS struct {
	fs.FS
	err error // injected into every Create while set
}

func (f *faultFS) Create(path string) (fs.File, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.FS.Create(path)
}
