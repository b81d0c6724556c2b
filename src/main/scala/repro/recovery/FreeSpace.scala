package repro.recovery

import repro.geo.{RoadNetwork, XY}
import repro.nn._
import repro.traj.{MatchedPoint, Recovered, SparseFrame, Traj}
import scala.util.Random

/** Shared machinery of the free-space recovery baselines (DHTR [20] and
  * TERI [21], adapted to road networks per the paper's setup): the model
  * predicts missing COORDINATES in free space; each prediction is then
  * snapped onto the nearest road segment. Free-space prediction ignores
  * road constraints, which is exactly the weakness the paper's road-network
  * metrics expose.
  */
abstract class FreeSpaceModel(
    val net: RoadNetwork,
    val epsilon: Double,
) extends Module {

  /** Predict normalised (x, y) for every slot at `times`, given the slots'
    * free-space linear interpolations `lin`.
    */
  def predictXY(t: Traj, times: Array[Double], lin: Array[XY])(implicit tp: Tape): Tensor

  /** Kalman-style calibration (DHTR): blend the network prediction with the
    * free-space linear interpolation (its "measurement").
    */
  protected def blend: Double = 0.5

  def recover(t: Traj): Recovered = {
    implicit val tp: Tape = NoTape
    val tl = Recoverer.slotTimeline(t, epsilon)
    val lin = Array.tabulate(tl.length)(tl.interpXY)
    val xy = predictXY(t, tl.times, lin)
    val out = Array.tabulate(tl.length) { j =>
      val p =
        if (tl.observed(j)) t.sparse(tl.anchor(j)).xy // observed: snap the GPS point
        else {
          val raw = XY(net.denormX(xy(j, 0)), net.denormY(xy(j, 1)))
          XY(raw.x * blend + lin(j).x * (1 - blend), raw.y * blend + lin(j).y * (1 - blend))
        }
      val seg = net.nearestSegments(p, 1).head
      MatchedPoint(seg, net.projectRatio(p, seg), tl.times(j))
    }
    Recovered(t.id, out)
  }

  /** MSE training against the true dense coordinates. */
  def loss(t: Traj)(implicit tp: Tape): Tensor = {
    val tl = Recoverer.slotTimeline(t, epsilon)
    val xy = predictXY(t, tl.times, Array.tabulate(tl.length)(tl.interpXY))
    val target = new Array[Double](2 * t.dense.length)
    t.dense.indices.foreach { j =>
      val p = net.pointAt(t.dense(j).seg, t.dense(j).r)
      target(2 * j) = net.normX(p.x); target(2 * j + 1) = net.normY(p.y)
    }
    Ops.scale(Ops.mseSum(xy, target), 1.0 / t.dense.length)
  }
}

object FreeSpaceModel {
  def train(model: FreeSpaceModel, trajs: IndexedSeq[Traj], epochs: Int = 10,
            log: String => Unit = _ => ()): Seq[Double] = {
    Trainer.fit(trajs, model.params, new Adam(model.params, lr = 2e-3), epochs, batchSize = 16,
      seed = 37L, label = "freespace", log = log)((t, tp) => model.loss(t)(tp))
  }
}

/** DHTR [20]: BiGRU (stand-in for BiLSTM) over the observed points; each
  * missing slot queries the encoder states through attention keyed on the
  * slot time; the prediction is calibrated against linear interpolation
  * (the Kalman-filter component).
  */
final class DhtrModel(
    net: RoadNetwork,
    epsilon: Double,
    val encFc: Linear,
    val encoder: BiGru,
    val queryFc: Linear,
    val head: Mlp,
) extends FreeSpaceModel(net, epsilon) {

  def params: Seq[Tensor] = encFc.params ++ encoder.params ++ queryFc.params ++ head.params

  def predictXY(t: Traj, times: Array[Double], lin: Array[XY])(implicit tp: Tape): Tensor = {
    val frame = new SparseFrame(net, t)
    val enc = encoder(encFc(Tensor.fromRows(frame.rows.toIndexedSeq).markConstant()))
    val rows = times.indices.map { j =>
      val q = queryFc(new Tensor(1, 3, frame.at(lin(j).x, lin(j).y, times(j))).markConstant())
      Ops.sigmoid(head(Ops.concatCols(q, DotAttention(q, enc))))
    }
    Ops.concatRows(rows)
  }
}

object DhtrModel {
  def init(net: RoadNetwork, epsilon: Double): DhtrModel = {
    val rnd = new Random(41L)
    val dh = 32 // model width
    new DhtrModel(net, epsilon,
      Linear(3, dh, rnd), BiGru(dh, dh, rnd), Linear(3, dh, rnd),
      Mlp(2 * dh, dh, 2, rnd))
  }
}

/** TERI [21]: transformer encoder over observed points (irregular intervals
  * encoded as explicit time features), coordinate infill by cross attention
  * from a learned time-query, no calibration stage.
  */
final class TeriModel(
    net: RoadNetwork,
    epsilon: Double,
    val encFc: Linear,
    val encoder: TransformerEncoder,
    val queryFc: Linear,
    val cross: MultiHeadAttention,
    val head: Mlp,
) extends FreeSpaceModel(net, epsilon) {

  override protected def blend: Double = 1.0 // no Kalman calibration in TERI

  def params: Seq[Tensor] =
    encFc.params ++ encoder.params ++ queryFc.params ++ cross.params ++ head.params

  def predictXY(t: Traj, times: Array[Double], lin: Array[XY])(implicit tp: Tape): Tensor = {
    val frame = new SparseFrame(net, t)
    val enc = encoder(encFc(Tensor.fromRows(frame.rows.toIndexedSeq).markConstant()))
    val queries = times.indices.map(j => frame.at(lin(j).x, lin(j).y, times(j)))
    val q = queryFc(Tensor.fromRows(queries.toIndexedSeq).markConstant())
    val ctx = cross(q, enc)
    Ops.sigmoid(head(Ops.concatCols(q, ctx)))
  }
}

object TeriModel {
  def init(net: RoadNetwork, epsilon: Double): TeriModel = {
    val rnd = new Random(43L)
    val dh = 32 // model width
    new TeriModel(net, epsilon,
      Linear(3, dh, rnd), TransformerEncoder(dh, 2, 128, 2, rnd), Linear(3, dh, rnd),
      MultiHeadAttention(dh, 2, rnd), Mlp(2 * dh, dh, 2, rnd))
  }
}

/** Recoverer wrapper for the free-space models. */
final class FreeSpaceRec(val model: FreeSpaceModel, override val name: String) extends Recoverer {
  def recover(t: Traj): Recovered = model.recover(t)
}
