package service

import (
	"os"
	"syscall"
)

// versionOf reads a file's version from its stat record.
func versionOf(fi os.FileInfo) fileVersion {
	v := fileVersion{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		v.ctime = st.Ctim.Nano()
		v.dev, v.ino = uint64(st.Dev), st.Ino
	}
	return v
}
