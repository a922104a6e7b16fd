// Package smoke starts toyd the way a test harness would.
package smoke

import (
	"os/exec"
	"strconv"
)

func Run(workers int) error {
	args := []string{"-addr", "127.0.0.1:0", "-rate", "7", "-at-default", "0", "-wrong-default", "9"}
	return exec.Command("toyd", append(args, "-computed", strconv.Itoa(workers))...).Run()
}
