"""What the CLI printed for its help texts and argument-parsing usage
errors while it built every command's parser for every argv: (exit code,
stdout, stderr) of renorm.cli.main(argv) with COLUMNS=80, keyed by argv.
Written by tests/record_usage.py; tests/test_cli_usage.py checks them."""

USAGE = {
    ('--help',): (
        0,
        'usage: renorm [-h] {solve,feasible,tower,extend,horseshoe,plotdata,verify} ...\n\nCommand-line surface: every constant, table, and figure-class of the\nrenormalization analysis as JSON/CSV artifacts. Exit codes: 0 success, 1\ninvariant failure, 2 usage error, 3 numerical failure (no root, weak\nexpansion, empty domain, ...): a renorm.scaling.NumericalFailure.\n\npositional arguments:\n  {solve,feasible,tower,extend,horseshoe,plotdata,verify}\n\noptions:\n  -h, --help            show this help message and exit\n',
        '',
    ),
    ('solve', '--help'): (
        0,
        'usage: renorm solve [-h] [--period {3,5}] [--tol TOL] [--step STEP]\n                    [--out OUT] [--config CONFIG]\n\noptions:\n  -h, --help       show this help message and exit\n  --period {3,5}\n  --tol TOL\n  --step STEP\n  --out OUT\n  --config CONFIG  JSON file of defaults; flags win\n',
        '',
    ),
    ('feasible', '--help'): (
        0,
        'usage: renorm feasible [-h] [--period {3,5}] [--step STEP]\n                       [--format {json,csv}] [--out OUT] [--config CONFIG]\n\noptions:\n  -h, --help           show this help message and exit\n  --period {3,5}\n  --step STEP\n  --format {json,csv}\n  --out OUT\n  --config CONFIG      JSON file of defaults; flags win\n',
        '',
    ),
    ('tower', '--help'): (
        0,
        'usage: renorm tower [-h] [--period {3,5}] [--tol TOL] [--depth DEPTH]\n                    [--out OUT] [--config CONFIG]\n\noptions:\n  -h, --help       show this help message and exit\n  --period {3,5}\n  --tol TOL\n  --depth DEPTH\n  --out OUT\n  --config CONFIG  JSON file of defaults; flags win\n',
        '',
    ),
    ('extend', '--help'): (
        0,
        'usage: renorm extend [-h] [--period {3,5}] [--tol TOL] [--depth DEPTH]\n                     [--resolution RESOLUTION] [--out OUT] [--config CONFIG]\n\noptions:\n  -h, --help            show this help message and exit\n  --period {3,5}\n  --tol TOL\n  --depth DEPTH\n  --resolution RESOLUTION\n  --out OUT\n  --config CONFIG       JSON file of defaults; flags win\n',
        '',
    ),
    ('horseshoe', '--help'): (
        0,
        'usage: renorm horseshoe [-h] [--depth DEPTH] [--eps EPS] [--out OUT]\n                        [--config CONFIG]\n\noptions:\n  -h, --help       show this help message and exit\n  --depth DEPTH\n  --eps EPS        comma-separated eps list\n  --out OUT\n  --config CONFIG  JSON file of defaults; flags win\n',
        '',
    ),
    ('plotdata', '--help'): (
        0,
        'usage: renorm plotdata [-h] {scaling,returnmap,cobweb,tower,extension} ...\n\npositional arguments:\n  {scaling,returnmap,cobweb,tower,extension}\n\noptions:\n  -h, --help            show this help message and exit\n',
        '',
    ),
    ('verify', '--help'): (
        0,
        'usage: renorm verify [-h] [--period {3,5}] [--seed SEED] [--out OUT]\n                     [--config CONFIG] [--full]\n                     {all,tower,pwa,extension,horseshoe}\n\npositional arguments:\n  {all,tower,pwa,extension,horseshoe}\n\noptions:\n  -h, --help            show this help message and exit\n  --period {3,5}\n  --seed SEED\n  --out OUT\n  --config CONFIG       JSON file of defaults; flags win\n  --full                acceptance-scale depths\n',
        '',
    ),
    ('plotdata', 'extension', '--help'): (
        0,
        'usage: renorm plotdata extension [-h] [--period {3,5}] [--tol TOL]\n                                 [--depth DEPTH] [--resolution RESOLUTION]\n                                 [--out OUT] [--config CONFIG]\n\noptions:\n  -h, --help            show this help message and exit\n  --period {3,5}\n  --tol TOL\n  --depth DEPTH\n  --resolution RESOLUTION\n  --out OUT\n  --config CONFIG       JSON file of defaults; flags win\n',
        '',
    ),
    (): (
        2,
        '',
        'usage: renorm [-h] {solve,feasible,tower,extend,horseshoe,plotdata,verify} ...\nrenorm: error: the following arguments are required: command\n',
    ),
    ('bogus',): (
        2,
        '',
        "usage: renorm [-h] {solve,feasible,tower,extend,horseshoe,plotdata,verify} ...\nrenorm: error: argument command: invalid choice: 'bogus' (choose from 'solve', 'feasible', 'tower', 'extend', 'horseshoe', 'plotdata', 'verify')\n",
    ),
    ('solve', '--bogus'): (
        2,
        '',
        'usage: renorm [-h] {solve,feasible,tower,extend,horseshoe,plotdata,verify} ...\nrenorm: error: unrecognized arguments: --bogus\n',
    ),
    ('solve', '--period', '7'): (
        2,
        '',
        'usage: renorm solve [-h] [--period {3,5}] [--tol TOL] [--step STEP]\n                    [--out OUT] [--config CONFIG]\nrenorm solve: error: argument --period: invalid choice: 7 (choose from 3, 5)\n',
    ),
    ('plotdata',): (
        2,
        '',
        'usage: renorm plotdata [-h] {scaling,returnmap,cobweb,tower,extension} ...\nrenorm plotdata: error: the following arguments are required: kind\n',
    ),
    ('verify',): (
        2,
        '',
        'usage: renorm verify [-h] [--period {3,5}] [--seed SEED] [--out OUT]\n                     [--config CONFIG] [--full]\n                     {all,tower,pwa,extension,horseshoe}\nrenorm verify: error: the following arguments are required: suite\n',
    ),
    ('verify', 'all', '--bogus'): (
        2,
        '',
        'usage: renorm [-h] {solve,feasible,tower,extend,horseshoe,plotdata,verify} ...\nrenorm: error: unrecognized arguments: --bogus\n',
    ),
}
