//go:build !linux

package service

import "os"

// versionOf reads a file's version from what os.FileInfo says on every
// platform: its size and mtime (the racy-timestamp rule still applies).
func versionOf(fi os.FileInfo) fileVersion {
	return fileVersion{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
}
