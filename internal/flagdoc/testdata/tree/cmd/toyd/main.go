package main

import "os"

func main() { os.Args = append(os.Args, "-self-set", "8") }
