//go:build !race

package ftrouting

const raceEnabled = false
