module bots/benchmark

go 1.22

require bots v0.0.0

replace bots => ../
