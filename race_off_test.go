//go:build !race

package jiffy_test

const raceDetector = false
