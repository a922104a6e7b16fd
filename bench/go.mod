module rebudget/bench

go 1.22

require rebudget v0.0.0

replace rebudget => ../
