//go:build !linux || arm

package pdm

import "os"

// writeback does nothing here: the host has no sync_file_range (32-bit arm
// Linux's syscall package lacks it), so a Sync does all the writeback.
func writeback(*os.File, int64, int64) {}
