// Package bench holds the host context the repo's measurement tools
// stamp alongside every run, so results taken on different machines
// stay comparable.
package bench

import "runtime"

// Env captures the host context a measurement ran under. A throughput
// number without its core count and scheduler width is not comparable
// to anything.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// HostEnv stamps the current process's environment.
func HostEnv() Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}
