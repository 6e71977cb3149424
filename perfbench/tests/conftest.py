from perfbench.common import require_source

require_source()
