//go:build !race

package gofront_test

const raceEnabled = false
