// Package reachfix is the fixture of the reachability gate: its only
// dead declaration is lib.Dead.
package reachfix

import (
	"fmt"

	"reachfix/internal/lib"
)

// Describe reaches every live declaration of lib.
func Describe() string {
	return fmt.Sprint(lib.NewPoint(), lib.Fast, lib.Used())
}
