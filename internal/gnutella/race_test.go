//go:build race

package gnutella

const raceEnabled = true
