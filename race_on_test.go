//go:build race

package jiffy_test

// raceDetector reports whether the test binary runs under -race (see
// skipUnderRace).
const raceDetector = true
