//go:build !race

package bft

const raceEnabled = false
