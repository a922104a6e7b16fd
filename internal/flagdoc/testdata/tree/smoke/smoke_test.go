package smoke

var testArgs = []string{"-test-only", "9"}
