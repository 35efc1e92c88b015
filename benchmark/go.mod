module fractos/benchmark

go 1.22

require fractos v0.0.0

replace fractos => ../
