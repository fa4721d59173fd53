//go:build race

package registry

// raceEnabled reports a -race build, whose sync.Pool drops items by
// design, so allocation counts through pooled paths are not zero.
const raceEnabled = true
