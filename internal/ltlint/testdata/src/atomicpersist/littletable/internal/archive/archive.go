// Package archive stands in for the backup mirror, which copies durable
// files like any persistence package.
package archive

import "littletable/internal/vfs"

// copyRaw stages a copy by hand instead of through the helper.
func copyRaw(fsys vfs.FS, dst string, data []byte) error {
	f, err := fsys.Create(dst + ".tmp") // want `raw FS.Create outside internal/vfs`
	if err != nil {
		return err
	}
	f.Write(data)
	f.Close()
	return fsys.Rename(dst+".tmp", dst) // want `raw FS.Rename outside internal/vfs`
}
