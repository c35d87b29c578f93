"""Self-contained numpy neural engine: layers, BPTT, Adam, and weight
serialization. `build_net` builds a cell stack and dense head of any widths;
the observers' own widths live in `vobs.observer_lstm`.

Precision policy: training and inference math runs in float32
(`COMPUTE_DTYPE`) on a cast copy of the network. The float64 network is the
master: Adam updates it and the weight file stores it bit-exact.
"""

from .adam import Adam
from .layers import Dense, GruLayer, LstmLayer
from .network import COMPUTE_DTYPE, RecurrentRegressor, TrainConfig, build_net, l2_loss
from .weights_io import load_weights, save_weights
