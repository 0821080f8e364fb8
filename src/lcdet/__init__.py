"""LCDet: a fully-convolutional single-shot detector with float32 and
end-to-end 8-bit fixed-point inference, desk-scale training, discrete-score
evaluation, and a bandwidth-aware performance model."""

from .data import GroundTruthBox, synth_dataset
from .detector import Detection, box_iou, decode, iou, nms
from .errors import LCDetError
from .model import (Model, NetworkSpec, build_lcdet, forward, init_model,
                    load, load_file, profile_config, quantize_model, save, save_file)
from .quant import (CalibrationRecord, QuantizedTensor, QuantParams, calibrate,
                    dequantize, qconv2d, quantize)
from .tensor import activate, conv2d, maxpool2d, softmax
from .train import (GridTarget, LossConfig, TrainConfig, assign_cells, backward,
                    detection_loss, resolve_targets, train_loop)

__version__ = "0.1.0"
